package mauid

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// BenchmarkRunOnce50k measures one idle external-scheduler cycle
// (pull, mirror, Iterate, nothing to commit) against an in-process
// server over loopback, with 50k queued jobs and every core held: the
// perfbench deep-queue shape. "delta" pulls the queue as a delta
// against the kept one, "full" pulls it whole every cycle.
func BenchmarkRunOnce50k(b *testing.B) {
	srv, _ := externalClusterNoSched(b, 1, 8)
	spec := proto.JobSpec{Name: "deep", User: "u", Cores: 8, WallSecs: 3600, Script: "sleep:10m"}
	hold, err := srv.QSub(spec)
	if err != nil {
		b.Fatal(err)
	}
	starter := New(srv.Addr(), core.New(core.Options{}, 0), time.Second)
	if applied, _, err := starter.RunOnce(); err != nil || applied != 1 {
		b.Fatalf("start of job %d: applied %d, %v", hold, applied, err)
	}
	for i := 0; i < 50_000; i++ {
		if _, err := srv.QSub(spec); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []struct {
		name string
		full bool
	}{{"delta", false}, {"full", true}} {
		b.Run(mode.name, func(b *testing.B) {
			d := New(srv.Addr(), core.New(core.Options{}, 0), time.Second)
			d.fullPulls = mode.full
			if _, _, err := d.RunOnce(); err != nil { // the first pull is full either way
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if applied, _, err := d.RunOnce(); err != nil || applied != 0 {
					b.Fatalf("idle cycle applied %d, %v", applied, err)
				}
			}
		})
	}
}
