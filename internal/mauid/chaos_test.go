package mauid

import (
	"fmt"
	"repro/internal/testutil/leak"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/proto/chaos"
	"repro/internal/serverd"
)

// TestChaosSchedulerSurvivesServerOutage: the mauid talks to the
// server through a fault-injecting proxy. A burst of refused
// connections makes several iterations fail; the daemon must back off
// and resume scheduling once the path heals, without being restarted.
func TestChaosSchedulerSurvivesServerOutage(t *testing.T) {
	leak.Check(t)
	srv, _ := externalClusterNoSched(t, 1, 8)
	p := chaos.New(srv.Addr(), chaos.Options{})
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	d := New(p.Addr(), core.New(core.Options{}, 0), 15*time.Millisecond)
	d.Start()
	t.Cleanup(d.Close)

	id, err := srv.QSub(proto.JobSpec{
		Name: "pre", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, id, "completed", 10*time.Second)

	// Outage: the next several scheduler connections die at accept.
	p.RefuseNext(6)
	id2, err := srv.QSub(proto.JobSpec{
		Name: "post", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, id2, "completed", 15*time.Second)
	if s := p.Stats(); s.Refused != 6 {
		t.Errorf("stats = %+v, want Refused=6", s)
	}
}

// TestChaosSchedulerRestart: killing the mauid and starting a fresh
// one must resume scheduling — the daemon is stateless by design, so
// a queued job just waits for the replacement.
func TestChaosSchedulerRestart(t *testing.T) {
	leak.Check(t)
	srv, d := externalCluster(t, 1, 8)
	id, err := srv.QSub(proto.JobSpec{
		Name: "first", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, id, "completed", 10*time.Second)

	d.Close()
	id2, err := srv.QSub(proto.JobSpec{
		Name: "stranded", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	// No scheduler: the job must still be queued after a few would-be
	// iterations.
	time.Sleep(100 * time.Millisecond)
	for _, j := range srv.QStat().Jobs {
		if j.ID == id2 && j.State != "queued" {
			t.Fatalf("job scheduled with no scheduler running (state %s)", j.State)
		}
	}

	d2 := New(srv.Addr(), core.New(core.Options{}, 0), 15*time.Millisecond)
	d2.Start()
	t.Cleanup(d2.Close)
	waitState(t, srv, id2, "completed", 10*time.Second)
}

// externalClusterNoSched is externalCluster without the mauid, for
// tests that wire their own daemon (e.g. through a chaos proxy).
func externalClusterNoSched(t testing.TB, n, cores int) (*serverd.Server, []string) {
	t.Helper()
	srv := serverd.New(serverd.Options{Sched: nil})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	names := momSet(t, srv, n, cores)
	return srv, names
}

// momSet starts n moms against srv and waits for registration.
func momSet(t testing.TB, srv *serverd.Server, n, cores int) []string {
	t.Helper()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		m := mom.New(fmt.Sprintf("cnode%d", i), cores)
		if err := m.Start("127.0.0.1:0", srv.Addr()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		names[i] = m.Name()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(srv.QStat().Nodes) >= n {
			return names
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("moms never registered")
	return nil
}

// TestChaosSilentServerBoundsCycle: a server that accepts connections
// but never answers must fail a cycle within the exchange bound
// (8 × interval) instead of wedging RunOnce and, through it, Close;
// once the path answers again the loop resumes scheduling.
func TestChaosSilentServerBoundsCycle(t *testing.T) {
	leak.Check(t)
	srv, _ := externalClusterNoSched(t, 1, 8)
	p := chaos.New(srv.Addr(), chaos.Options{})
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.Blackhole(true)
	const interval = 25 * time.Millisecond
	bound := 8 * interval
	slack := 2 * time.Second // scheduling delay on a loaded test host

	for _, mode := range []proto.Mode{proto.ModeAuto, proto.ModeV1, proto.ModeV2} {
		d := New(p.Addr(), core.New(core.Options{}, 0), interval)
		d.Proto = mode
		t0 := time.Now()
		if _, _, err := d.RunOnce(); err == nil {
			t.Fatalf("%s: RunOnce against a silent server succeeded", mode)
		}
		if el := time.Since(t0); el > bound+slack {
			t.Fatalf("%s: RunOnce took %v to fail, bound %v", mode, el, bound)
		}
	}

	d := New(p.Addr(), core.New(core.Options{}, 0), interval)
	d.Start()
	waitBlackholed(t, p, p.Stats().Blackholed+1) // the loop is inside a silent exchange
	t0 := time.Now()
	d.Close()
	if el := time.Since(t0); el > bound+slack {
		t.Fatalf("Close took %v while the server was silent, bound %v", el, bound)
	}

	d = New(p.Addr(), core.New(core.Options{}, 0), interval)
	d.Start()
	t.Cleanup(d.Close)
	// A cycle opens at most two connections (a handshake and its v1
	// re-dial), so a third means a cycle failed and the loop retried.
	waitBlackholed(t, p, p.Stats().Blackholed+3)
	p.Blackhole(false)
	p.SeverAll() // drop the held connections so nothing lingers
	id, err := srv.QSub(proto.JobSpec{
		Name: "after", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:20ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, id, "completed", 15*time.Second)
}

// waitBlackholed waits until the proxy has held n connections silent.
func waitBlackholed(t *testing.T, p *chaos.Proxy, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Blackholed < n {
		if time.Now().After(deadline) {
			t.Fatalf("proxy held %d connections, want %d", p.Stats().Blackholed, n)
		}
		time.Sleep(time.Millisecond)
	}
}
