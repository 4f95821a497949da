package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
)

// Each workload's short mode is the held-out check every run makes; it
// must pass on a correct program.
func TestShortWorkloadsPass(t *testing.T) {
	cat, err := LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			rep := fn(Config{Seed: cat.HeldOutSeed, Seconds: 1, Short: true})
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Errors)
			}
		})
	}
}

// A brief full run of each workload must produce every result-line
// metric, untraced and traced.
func TestWorkloadsReportEveryResultMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	cat, err := LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cat.Workloads {
		for _, traced := range []bool{false, true} {
			want := cat.EndToEnd
			if traced {
				want = cat.PerLayer
			}
			rep := workloads[w.Name](Config{Seed: 3, Seconds: 0.5, Trace: traced})
			if rep.Failed != 0 {
				t.Errorf("%s traced=%v: %v", w.Name, traced, rep.Errors)
			}
			for _, m := range want {
				if _, ok := m.Resolve(w.Name, rep.Metrics); !ok {
					t.Errorf("%s traced=%v: %s not measured", w.Name, traced, m.Name)
				}
			}
			if traced && len(rep.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
		}
	}
}

// A simulator that computes a different Table II must fail the pin.
func TestTable2PinCatchesADifferentTable(t *testing.T) {
	saved := pinnedTable2
	defer func() { pinnedTable2 = saved }()
	pinnedTable2 = strings.Replace(saved, "228.00", "227.00", 1)
	rep := runESPSim(Config{Seed: 1, Seconds: 0.01})
	if rep.Failed == 0 {
		t.Fatal("a Table II differing from the pinned copy passed")
	}
	if !strings.Contains(strings.Join(rep.Errors, "\n"), "differs from the pinned copy") {
		t.Errorf("unexpected errors: %v", rep.Errors)
	}
}

// A snapshot over proto's frame cap must fail the operation with a
// message naming the cap, promptly, never hang.
func TestOverCapPullFailsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("queues ~100k jobs")
	}
	e, err := setupDeep(1, deepQueuedShort)
	if err != nil {
		t.Fatal(err)
	}
	defer e.lc.close()
	for i := 0; i < 100_000; i++ {
		if _, err := e.lc.srv.QSub(proto.JobSpec{Name: "over", User: "u0", Cores: liveMomCores, WallSecs: 600, Script: "sleep:1s"}); err != nil {
			t.Fatal(err)
		}
		e.backlog++
	}
	rep := newReport()
	start := time.Now()
	e.idleCycle(rep, &deepPhase{}, nil, 0)
	if rep.Failed != 1 || !strings.Contains(strings.Join(rep.Errors, ""), "capped at 16777216 bytes") {
		t.Fatalf("over-cap pull: failed %d, errors %v", rep.Failed, rep.Errors)
	}
	if d := time.Since(start); d > waitLimit {
		t.Errorf("over-cap pull took %v", d)
	}
}
