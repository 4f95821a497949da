package mauid

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/mom"
	"repro/internal/proto"
	"repro/internal/serverd"
	"repro/internal/sim"
	"repro/internal/testutil/leak"
	"repro/internal/tm"
)

// fullMirror builds the mirror a full pull of the server gives now,
// through a daemon that never keeps a queue.
func fullMirror(t *testing.T, addr string) (*proto.SchedState, *mirror) {
	t.Helper()
	f := New(addr, core.New(core.Options{}, 0), time.Second)
	f.fullPulls = true
	st, m, err := f.sync()
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

// checkMirrorsEqual asserts two mirrors hold the same state, job by
// job and in the same order.
func checkMirrorsEqual(t *testing.T, got, want *mirror) {
	t.Helper()
	jobsEqual := func(what string, a, b []*job.Job) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d jobs, full pull has %d", what, len(a), len(b))
		}
		for i := range a {
			if !reflect.DeepEqual(*a[i], *b[i]) {
				t.Fatalf("%s[%d]: %+v, full pull has %+v", what, i, *a[i], *b[i])
			}
		}
	}
	jobsEqual("queued", got.queued, want.queued)
	jobsEqual("active", got.active, want.active)
	if len(got.dyn) != len(want.dyn) {
		t.Fatalf("dyn: %d requests, full pull has %d", len(got.dyn), len(want.dyn))
	}
	for i := range got.dyn {
		a, b := *got.dyn[i], *want.dyn[i]
		if !reflect.DeepEqual(*a.Job, *b.Job) {
			t.Fatalf("dyn[%d] job: %+v, full pull has %+v", i, *a.Job, *b.Job)
		}
		a.Job, b.Job = nil, nil
		if a != b {
			t.Fatalf("dyn[%d]: %+v, full pull has %+v", i, a, b)
		}
	}
	if got.serial != want.serial || got.qserial != want.qserial {
		t.Fatalf("epochs %d/%d, full pull %d/%d", got.serial, got.qserial, want.serial, want.qserial)
	}
	gn, wn := got.cl.Nodes(), want.cl.Nodes()
	if len(gn) != len(wn) {
		t.Fatalf("%d nodes, full pull has %d", len(gn), len(wn))
	}
	for i := range gn {
		if gn[i].Name != wn[i].Name || gn[i].Cores != wn[i].Cores || gn[i].Used() != wn[i].Used() || gn[i].State != wn[i].State {
			t.Fatalf("node %s differs from the full pull", gn[i].Name)
		}
	}
}

// TestSkippedStartLeavesJobQueued: a start the server skips leaves the
// kept job exactly as a full pull builds it — queued, not backfilled —
// even though the cycle marked it started and backfilled.
func TestSkippedStartLeavesJobQueued(t *testing.T) {
	leak.Check(t)
	srv, _ := externalClusterNoSched(t, 1, 8)
	var ids []int
	for _, cores := range []int{16, 8, 8} { // the first never fits: later starts are backfills
		id, err := srv.QSub(proto.JobSpec{Name: "s", User: "u", Cores: cores, WallSecs: 60, Script: "sleep:1m"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	d := New(srv.Addr(), core.New(core.Options{}, 0), time.Second)
	st, m, err := d.sync()
	if err != nil {
		t.Fatal(err)
	}
	// plan, with a look at the started job before settle.
	d.sched.Recycle(d.sched.Iterate(sim.Time(st.NowMS), m))
	if len(m.actions) != 1 || m.actions[0].JobID != ids[1] {
		t.Fatalf("plan = %+v, want one start of job %d", m.actions, ids[1])
	}
	if j := m.tried[0]; !j.Backfilled || j.State != job.Running {
		t.Fatalf("started job %+v, want it running as a backfill", *j)
	}
	if !m.settle() {
		t.Fatal("settle refused to keep the queue")
	}
	// Another start takes the node first, so the server skips ours.
	if resp, err := d.commit(proto.SchedCommit{Actions: []proto.SchedAction{{Kind: "start", JobID: ids[2]}}}); err != nil || resp.Applied != 1 {
		t.Fatalf("out-of-band start: %+v, %v", resp, err)
	}
	if resp, err := d.commit(proto.SchedCommit{Serial: st.Serial, Actions: m.actions}); err != nil || resp.Skipped != 1 {
		t.Fatalf("stale start: %+v, %v", resp, err)
	}
	st, m, err = d.sync()
	if err != nil {
		t.Fatal(err)
	}
	if st.Since == 0 || !reflect.DeepEqual(st.Removed, []int{ids[2]}) {
		t.Fatalf("pull since=%d removed=%v, want a delta removing job %d", st.Since, st.Removed, ids[2])
	}
	_, full := fullMirror(t, srv.Addr())
	checkMirrorsEqual(t, m, full)
}

// schedServer answers every sched.pull with the next of replies and
// records the pulls it got.
type schedServer struct {
	ln      net.Listener
	replies []proto.SchedState
	mu      sync.Mutex
	pulls   []proto.SchedPull // guarded by mu
	wg      sync.WaitGroup
}

func newSchedServer(t *testing.T, replies ...proto.SchedState) *schedServer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &schedServer{ln: ln, replies: replies}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for i := 0; ; i++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			c := proto.NewConn(nc)
			if c.AcceptHandshake(proto.ModeAuto) == nil {
				if env, err := c.Recv(); err == nil {
					var p proto.SchedPull
					_ = env.Decode(&p)
					s.mu.Lock()
					s.pulls = append(s.pulls, p)
					s.mu.Unlock()
					_ = c.Send(proto.TSchedState, s.replies[min(i, len(s.replies)-1)])
				}
			}
			_ = c.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

// TestUnknownJobStateFailsCycle: a job state the daemon cannot parse
// fails the cycle instead of being planned as queued, and drops the
// kept queue so the next pull is full.
func TestUnknownJobStateFailsCycle(t *testing.T) {
	leak.Check(t)
	node := []proto.NodeStatus{{Name: "n0", Cores: 8, State: "up"}}
	srv := newSchedServer(t,
		proto.SchedState{Serial: 5, Incarnation: 9, Nodes: node,
			Queued: []proto.SchedJob{{ID: 1, State: "queued", Cores: 99, WallSecs: 60}}},
		proto.SchedState{Serial: 6, Since: 5, Incarnation: 9, Nodes: node,
			Queued: []proto.SchedJob{{ID: 2, State: "frozen", Cores: 1, WallSecs: 60}}},
		proto.SchedState{Serial: 6, Incarnation: 9, Nodes: node,
			Queued: []proto.SchedJob{{ID: 1, State: "queued", Cores: 99, WallSecs: 60}}},
	)
	d := New(srv.ln.Addr().String(), core.New(core.Options{}, 0), time.Second)
	if _, _, err := d.RunOnce(); err != nil || len(d.queue) != 1 {
		t.Fatalf("first cycle: err %v, kept %d jobs", err, len(d.queue))
	}
	if _, _, err := d.RunOnce(); err == nil {
		t.Fatal("a job in an unknown state must fail the cycle")
	}
	if d.queue != nil || d.since != 0 {
		t.Fatalf("failed cycle kept %d jobs since %d", len(d.queue), d.since)
	}
	if _, _, err := d.RunOnce(); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	want := []proto.SchedPull{{}, {Since: 5, Incarnation: 9}, {}}
	if !reflect.DeepEqual(srv.pulls, want) {
		t.Fatalf("pulls = %+v, want %+v", srv.pulls, want)
	}
	if _, err := newMirror(&proto.SchedState{Queued: []proto.SchedJob{{ID: 1, State: "frozen"}}}); err == nil {
		t.Error("newMirror accepted an unknown job state")
	}
}

// TestChaosSchedulerResyncsAfterServerRestart: a new server behind the
// same address has a serial history of its own. The daemon must take a
// full pull from it, and no later cycle may plan on (or commit) a job
// of the old server.
func TestChaosSchedulerResyncsAfterServerRestart(t *testing.T) {
	leak.Check(t)
	old := serverd.New(serverd.Options{})
	if err := old.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := old.Addr()
	for i := 0; i < 3; i++ { // no moms: these never start
		if _, err := old.QSub(proto.JobSpec{Name: "old", User: "u", Cores: 8, WallSecs: 60}); err != nil {
			t.Fatal(err)
		}
	}
	d := New(addr, core.New(core.Options{}, 0), time.Second)
	if _, _, err := d.RunOnce(); err != nil || len(d.queue) != 3 {
		t.Fatalf("cycle on the old server: err %v, kept %d jobs", err, len(d.queue))
	}
	old.Close()

	srv := serverd.New(serverd.Options{})
	if err := srv.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	momSet(t, srv, 1, 8) // one bump
	// Enough changes that the new serial passes the one the daemon
	// holds: without the incarnation check, the old queue would be
	// diffed against this server's history.
	var ids []int
	for i := 0; i < 3; i++ {
		id, err := srv.QSub(proto.JobSpec{Name: "new", User: "u", Cores: 8, WallSecs: 60, Script: "sleep:20ms"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	st, m, err := d.sync()
	if err != nil {
		t.Fatal(err)
	}
	if st.Since != 0 {
		t.Fatalf("first pull from the new server is a delta since %d", st.Since)
	}
	d.plan(st, m)
	for _, j := range append(append([]*job.Job(nil), m.queued...), m.tried...) {
		if j.Name != "new" {
			t.Fatalf("cycle planned on job %d of the old server", j.ID)
		}
	}
	if _, err := d.commit(proto.SchedCommit{Serial: st.Serial, Actions: m.actions}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		deadline := time.Now().Add(10 * time.Second)
		for jobStateOf(srv, id) != "completed" {
			if time.Now().After(deadline) {
				t.Fatalf("job %d never completed", id)
			}
			applied, skipped, err := d.RunOnce()
			if err != nil || skipped != 0 {
				t.Fatalf("cycle: applied %d skipped %d err %v", applied, skipped, err)
			}
			for _, j := range d.queue {
				if j.Name != "new" {
					t.Fatalf("kept queue holds job %d of the old server", j.ID)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func jobStateOf(srv *serverd.Server, id int) string {
	for _, j := range srv.QStat().Jobs {
		if j.ID == id {
			return j.State
		}
	}
	return ""
}

// TestDeltaDecisionsMatchFullPulls is the decision differential: the
// serverd mini-ESP (rigid sleepers and evolving applications asking for
// cores over TM) driven in lockstep by a delta daemon and by a daemon
// that always pulls in full, each with its own scheduler. Every cycle
// both plan on the same server state at the same instant; their mirrors
// must be equal and their commits identical, and the delta daemon's
// commit is the one applied.
func TestDeltaDecisionsMatchFullPulls(t *testing.T) {
	leak.Check(t)
	if testing.Short() {
		t.Skip("real-time workload")
	}
	srv, _ := externalClusterNoSched(t, 4, 8)
	delta := New(srv.Addr(), core.New(core.Options{}, 0), time.Second)
	full := New(srv.Addr(), core.New(core.Options{}, 0), time.Second)
	full.fullPulls = true

	const rigidJobs, evolvingJobs = 14, 6
	var grants atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < evolvingJobs; i++ {
		name := fmt.Sprintf("delta-diff-evolving-%d-%d", i, time.Now().UnixNano())
		mom.RegisterGoApp(name, func(ctx context.Context, tmc *tm.Context) error {
			time.Sleep(50 * time.Millisecond)
			hosts, err := tmc.DynGet(4)
			if err != nil {
				if !tm.IsRejected(err) {
					return err
				}
				time.Sleep(30 * time.Millisecond)
				if hosts, err = tmc.DynGet(4); err != nil {
					return nil
				}
			}
			grants.Add(1)
			time.Sleep(100 * time.Millisecond)
			return tmc.DynFree(hosts)
		})
		wg.Add(1)
		go func(name string, delay time.Duration) {
			defer wg.Done()
			time.Sleep(delay)
			if _, err := srv.QSub(proto.JobSpec{Name: name, User: "user06", Cores: 6, WallSecs: 60,
				Script: "go:" + name, Evolving: true}); err != nil {
				t.Errorf("qsub %s: %v", name, err)
			}
		}(name, time.Duration(i)*40*time.Millisecond)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < rigidJobs; i++ {
		wg.Add(1)
		go func(i int, delay time.Duration, cores, ms int) {
			defer wg.Done()
			time.Sleep(delay)
			if _, err := srv.QSub(proto.JobSpec{Name: fmt.Sprintf("rigid-%d", i), User: fmt.Sprintf("user%02d", i%5),
				Cores: cores, WallSecs: 60, Script: fmt.Sprintf("sleep:%dms", ms)}); err != nil {
				t.Errorf("qsub rigid-%d: %v", i, err)
			}
		}(i, time.Duration(rng.Intn(300))*time.Millisecond, 2+rng.Intn(10), 50+rng.Intn(250))
	}

	done := func() bool {
		st := srv.QStat()
		if len(st.Jobs) != rigidJobs+evolvingJobs {
			return false
		}
		for _, j := range st.Jobs {
			if j.State != "completed" {
				return false
			}
		}
		return true
	}
	var deltaStream, fullStream []proto.SchedAction
	deltas, cycles := 0, 0
	deadline := time.Now().Add(30 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatal("mini-ESP did not complete")
		}
		var stD, stF *proto.SchedState
		var mD, mF *mirror
		for {
			var err error
			if stD, mD, err = delta.sync(); err != nil {
				t.Fatal(err)
			}
			if stF, mF, err = full.sync(); err != nil {
				t.Fatal(err)
			}
			if stD.Serial == stF.Serial {
				break // both pulls saw the same state
			}
		}
		if stD.Since != 0 {
			deltas++
		}
		checkMirrorsEqual(t, mD, mF)
		// One instant for both plans: the pulls' clocks differ by the
		// time between them.
		delta.plan(stD, mD)
		full.plan(stD, mF)
		if !reflect.DeepEqual(mD.actions, mF.actions) {
			t.Fatalf("cycle %d: delta daemon commits %+v, full-pull daemon %+v", cycles, mD.actions, mF.actions)
		}
		deltaStream = append(deltaStream, mD.actions...)
		fullStream = append(fullStream, mF.actions...)
		if len(mD.actions) > 0 {
			if _, err := delta.commit(proto.SchedCommit{Serial: stD.Serial, Actions: mD.actions}); err != nil {
				t.Fatal(err)
			}
		}
		cycles++
		time.Sleep(3 * time.Millisecond)
	}
	wg.Wait()
	if !reflect.DeepEqual(deltaStream, fullStream) || len(deltaStream) < rigidJobs+evolvingJobs {
		t.Fatalf("commit streams differ or are short: %d vs %d actions", len(deltaStream), len(fullStream))
	}
	if deltas < cycles/2 || grants.Load() == 0 {
		t.Fatalf("%d of %d cycles pulled a delta, %d grants", deltas, cycles, grants.Load())
	}
	t.Logf("%d cycles (%d deltas), %d actions, %d grants", cycles, deltas, len(deltaStream), grants.Load())
}
