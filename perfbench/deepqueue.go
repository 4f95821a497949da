package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/mauid"
	"repro/internal/proto"
)

// Deep-queue shape: the external scheduler against 50k queued
// whole-node jobs while every core is held.
const (
	deepQueued      = 50_000
	deepQueuedShort = 2_000
	deepUsers       = 16
	// frameCap is proto's frame limit (16 MiB). A snapshot larger than
	// this cannot be pulled at all.
	frameCap = 16 << 20
)

type deepEnv struct {
	lc      *liveCluster
	d       *mauid.Daemon
	sched   *core.Scheduler
	starts  *startLog
	notify  chan int
	running []int // job ids holding the machine
	backlog int   // jobs still queued
	inproc  time.Duration
}

func setupDeep(seed int64, queued int) (*deepEnv, error) {
	lc, err := bootCluster(nil)
	if err != nil {
		return nil, err
	}
	notify := make(chan int, liveMoms) // at most one start per mom is ever outstanding
	e := &deepEnv{lc: lc, starts: newStartLog(notify), notify: notify}
	e.sched = core.New(core.Options{}, 0)
	e.d = mauid.New(lc.srv.Addr(), e.sched, time.Hour)
	script := registerApp("hold", holdApp(e.starts))
	rng := rand.New(rand.NewSource(seed))
	spec := func() proto.JobSpec {
		return proto.JobSpec{
			Name: "deep", User: fmt.Sprintf("u%d", rng.Intn(deepUsers)), Cores: liveMomCores,
			WallSecs: int64(600 + rng.Intn(86400)), Script: script,
		}
	}
	// Fill the machine first, one whole-node job per mom.
	for i := 0; i < liveMoms; i++ {
		id, err := lc.srv.QSub(spec())
		if err != nil {
			lc.close()
			return nil, err
		}
		e.running = append(e.running, id)
	}
	applied, _, err := e.d.RunOnce()
	if err == nil && applied != liveMoms {
		err = fmt.Errorf("initial cycle applied %d starts, want %d", applied, liveMoms)
	}
	for _, id := range e.running {
		if err == nil {
			err = waitStart(e.starts, id)
		}
	}
	if err != nil {
		lc.close()
		return nil, err
	}
	for len(notify) > 0 {
		<-notify
	}
	t0 := time.Now()
	for i := 0; i < queued; i++ {
		if _, err := lc.srv.QSub(spec()); err != nil {
			lc.close()
			return nil, err
		}
	}
	e.inproc = time.Since(t0)
	e.backlog = queued
	// One idle cycle lets lazy set-up finish before anything is timed.
	if applied, _, err := e.d.RunOnce(); err != nil || applied != 0 {
		lc.close()
		return nil, fmt.Errorf("warm-up cycle: applied %d, err %v", applied, err)
	}
	return e, nil
}

// pull is the benchmark's own scheduler snapshot: the sched.pull
// request and decode that mauid makes, over a connection whose dial and
// reads are bounded by waitLimit so that a stuck pull fails instead of
// hanging.
func (e *deepEnv) pull() (*proto.SchedState, int, error) {
	c, err := proto.DialModeTimeout(e.lc.srv.Addr(), proto.ModeAuto, waitLimit)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	c.SetReadTimeout(waitLimit)
	env, err := c.Request(proto.TSchedPull, nil)
	if err != nil {
		return nil, 0, err
	}
	var st proto.SchedState
	if err := env.Decode(&st); err != nil {
		return nil, 0, err
	}
	return &st, len(env.Payload), nil
}

type deepPhase struct {
	idle, turnover, pull, plan, qdel, commit, commitStart Sample
	lastPull                                              time.Duration
	pullBytes                                             int
	cycles                                                int
	cycleTime                                             time.Duration
	iters                                                 uint64
}

// idleCycle is the benchmark's pull beside one scheduler cycle that
// must change nothing.
func (e *deepEnv) idleCycle(rep *Report, ph *deepPhase, tr *Tracer, op int64) {
	rep.Attempted++
	root := tr.Begin("op.idle_cycle", -1, op)
	defer tr.End(root)
	sp := tr.Begin("proto.sched_pull", root, op)
	t0 := time.Now()
	st, n, err := e.pull()
	ph.lastPull = time.Since(t0)
	ph.pull.Add(ph.lastPull)
	tr.End(sp)
	if err != nil {
		rep.Failf("deep-queue: sched.pull failed (snapshot of %d queued jobs; proto frames are capped at %d bytes): %v", e.backlog, frameCap, err)
		return
	}
	ph.pullBytes = n
	if len(st.Queued) != e.backlog {
		rep.Failf("deep-queue: snapshot lists %d queued jobs, backlog is %d", len(st.Queued), e.backlog)
		return
	}
	settle()
	it0 := e.sched.Iterations()
	sp = tr.Begin("mauid.run_once", root, op)
	t1 := time.Now()
	applied, _, err := e.d.RunOnce()
	d := time.Since(t1)
	ph.idle.Add(d)
	ph.cycleTime += d
	// The cycle and the pull beside it ran back to back from the same
	// heap state; their difference is this cycle's mirror rebuild plus
	// Iterate plus whatever the two pulls differ by.
	ph.plan.Add(d - ph.lastPull)
	tr.End(sp)
	ph.iters += e.sched.Iterations() - it0
	ph.cycles++
	switch {
	case err != nil:
		rep.Failf("deep-queue: idle cycle: %v", err)
	case applied != 0:
		rep.Failf("deep-queue: idle cycle applied %d actions, want 0", applied)
	}
}

// turnoverOp deletes one running job, runs one cycle that must start
// exactly one replacement, and waits for the replacement's start.
func (e *deepEnv) turnoverOp(rep *Report, ph *deepPhase, tr *Tracer, rng *rand.Rand, op int64) {
	rep.Attempted++
	root := tr.Begin("op.turnover", -1, op)
	defer tr.End(root)
	vi := rng.Intn(len(e.running))
	victim := e.running[vi]
	sp := tr.Begin("serverd.qdel", root, op)
	t0 := time.Now()
	e.lc.srv.QDel(victim)
	ph.qdel.Add(time.Since(t0))
	tr.End(sp)

	it0 := e.sched.Iterations()
	sp = tr.Begin("mauid.commit_cycle", root, op)
	t1 := time.Now()
	applied, _, err := e.d.RunOnce()
	t2 := time.Now()
	ph.commit.Add(t2.Sub(t1))
	ph.cycleTime += t2.Sub(t1)
	tr.End(sp)
	ph.iters += e.sched.Iterations() - it0
	ph.cycles++
	if err != nil || applied != 1 {
		rep.Failf("deep-queue: turnover cycle applied %d actions (err %v), want 1", applied, err)
		return
	}
	sp = tr.Begin("mom.commit_to_start", root, op)
	select {
	case id := <-e.notify:
		at, n := e.starts.get(id)
		tr.EndAt(sp, at)
		if n != 1 {
			rep.Failf("deep-queue: job %d started %d times, want 1", id, n)
			return
		}
		ph.commitStart.Add(at.Sub(t2))
		ph.turnover.Add(at.Sub(t0))
		e.running[vi] = id
		e.backlog--
	case <-time.After(waitLimit):
		rep.Failf("deep-queue: no replacement started within %v of the commit", waitLimit)
	}
}

func (e *deepEnv) measure(rep *Report, seed int64, seconds float64, limit int, tr *Tracer) *deepPhase {
	ph := &deepPhase{}
	rng := rand.New(rand.NewSource(seed))
	end := deadline(seconds)
	for op := 0; (op < 2 || time.Now().Before(end)) && (limit == 0 || op < limit); op++ {
		settle()
		if op%2 == 0 {
			e.idleCycle(rep, ph, tr, int64(op))
		} else {
			e.turnoverOp(rep, ph, tr, rng, int64(op))
		}
	}
	return ph
}

func (ph *deepPhase) report(rep *Report) {
	rep.SetQuantiles("sched_cycle", &ph.idle, 1e6, "ms")
	rep.SetQuantiles("turnover", &ph.turnover, 1e6, "ms")
	rep.Set("sched_cycles_per_s", float64(ph.cycles)/ph.cycleTime.Seconds(), "1/s", ph.cycles)
	pull := ph.pull.Quantile(0.5)
	rep.Set("proto.sched_pull_p50_ms", pull/1e6, "ms", ph.pull.N())
	rep.Set("proto.sched_pull_bytes", float64(ph.pullBytes), "B", ph.pull.N())
	rep.Set("proto.sched_pull_cap_pct", 100*float64(ph.pullBytes)/frameCap, "%", ph.pull.N())
	rep.Set("mauid.plan_p50_ms", ph.plan.Quantile(0.5)/1e6, "ms", ph.plan.N())
	rep.Set("proto.sched_pull_share_pct", 100*pull/ph.idle.Quantile(0.5), "%", ph.pull.N())
	rep.Set("serverd.qdel_p50_us", ph.qdel.Quantile(0.5)/1e3, "us", ph.qdel.N())
	rep.Set("mauid.commit_cycle_p50_ms", ph.commit.Quantile(0.5)/1e6, "ms", ph.commit.N())
	rep.Set("mom.commit_to_start_p50_ms", ph.commitStart.Quantile(0.5)/1e6, "ms", ph.commitStart.N())
	if ph.cycles > 0 {
		rep.Set("core.iterations_per_op", float64(ph.iters)/float64(ph.cycles), "count", ph.cycles)
	}
}

// runDeepQueue measures the external scheduler's cycle at a deep queue.
func runDeepQueue(cfg Config) *Report {
	rep := newReport()
	queued, setups, limit := deepQueued, 5, 0
	if cfg.Short {
		queued, setups, limit = deepQueuedShort, 1, 6
	}
	env, setupS, err := setUp(setups,
		func() (*deepEnv, error) { return setupDeep(cfg.Seed, queued) },
		func(e *deepEnv) { e.lc.close() })
	if err != nil {
		rep.Checkf(false, "deep-queue: set-up: %v", err)
		return rep
	}
	defer env.lc.close()
	rep.Set("setup_s", setupS, "s", setups)
	rep.Set("serverd.qsub_inproc_us", float64(env.inproc.Microseconds())/float64(queued), "us", queued)

	if !cfg.Trace {
		ph := env.measure(rep, cfg.Seed, cfg.Seconds, limit, nil)
		ph.report(rep)
		if !cfg.Short {
			rep.Set("heap_inuse_mb", heapInuseMB(), "MB", 0)
		}
		return rep
	}
	base := env.measure(rep, cfg.Seed, cfg.Seconds/2, 0, nil)
	tr := NewTracer(1 << 12)
	ph := env.measure(rep, cfg.Seed, cfg.Seconds/2, 0, tr)
	ph.report(rep)
	rep.Spans = tr.Spans()
	reportOverhead(rep, "sched_cycle", &base.idle, &ph.idle)
	reportShares(rep, rep.Spans)
	return rep
}
