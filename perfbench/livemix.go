package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/tm"
)

// Live-mix shape: Fig. 12's loaded case. One pinned 1-core job holds
// the machine, and whole-machine rigid jobs queue behind it with
// reservations, so every submit runs reservation, backfill and delay
// checks.
const (
	liveWholeMachineJobs = 8
	liveSubmitters       = 2
	liveEvolvingFrac     = 0.3
	liveJobCores         = 2
	liveDynCores         = 4
	// liveWarmupSubmits is how many jobs each submitter sends before the
	// timed phase.
	liveWarmupSubmits = 2000
)

// liveEnv is one set-up live-mix cluster.
type liveEnv struct {
	lc     *liveCluster
	sched  *core.Scheduler
	starts *startLog
	pinID  int
	rigid  string // job scripts
	evolve string

	mu   sync.Mutex
	dyns map[int]*dynRec // guarded by mu; by job id
	tr   *Tracer         // guarded by mu; the tracer of the current phase
	ops  int64           // guarded by mu; span operation ids
}

// dynRec is one evolving job's dynamic round trip as the application
// saw it.
type dynRec struct {
	answers  int
	granted  bool
	rtt      time.Duration
	free     time.Duration
	transErr error
}

func (e *liveEnv) tracer() (*Tracer, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ops++
	return e.tr, e.ops
}

func setupLive() (*liveEnv, error) {
	sched := core.New(core.Options{}, 0)
	lc, err := bootCluster(sched)
	if err != nil {
		return nil, err
	}
	e := &liveEnv{lc: lc, sched: sched, starts: newStartLog(nil), dyns: map[int]*dynRec{}}
	pin := registerApp("pin", holdApp(e.starts))
	e.rigid = registerApp("rigid", func(ctx context.Context, tmc *tm.Context) error {
		e.starts.started(tmc.JobID)
		return nil
	})
	e.evolve = registerApp("evolve", e.evolvingApp)

	e.pinID, err = lc.srv.QSub(proto.JobSpec{Name: "pinned", User: "pin", Cores: 1, WallSecs: 1e7, Script: pin})
	if err != nil {
		lc.close()
		return nil, err
	}
	if err := waitStart(e.starts, e.pinID); err != nil {
		lc.close()
		return nil, err
	}
	for i := 0; i < liveWholeMachineJobs; i++ {
		if _, err := lc.srv.QSub(proto.JobSpec{
			Name: "whole", User: fmt.Sprintf("w%d", i), Cores: liveMoms * liveMomCores,
			WallSecs: 3600, Script: pin,
		}); err != nil {
			lc.close()
			return nil, err
		}
	}
	return e, nil
}

// evolvingApp issues one dynamic request for four cores and releases
// what it was granted.
func (e *liveEnv) evolvingApp(ctx context.Context, tmc *tm.Context) error {
	e.starts.started(tmc.JobID)
	tr, op := e.tracer()
	root := tr.Begin("op.dyn", -1, op)
	defer tr.End(root)
	sp := tr.Begin("tm.dynget", root, op)
	t0 := time.Now()
	hosts, err := tmc.DynGet(liveDynCores)
	rtt := time.Since(t0)
	tr.End(sp)
	rec := &dynRec{rtt: rtt}
	switch {
	case err == nil:
		rec.answers, rec.granted = 1, true
		sp := tr.Begin("tm.dynfree", root, op)
		t1 := time.Now()
		ferr := tmc.DynFree(hosts)
		rec.free = time.Since(t1)
		tr.End(sp)
		rec.transErr = ferr
	case tm.IsRejected(err):
		rec.answers = 1
	default:
		rec.transErr = err
	}
	e.mu.Lock()
	if prev := e.dyns[tmc.JobID]; prev != nil {
		prev.answers += rec.answers
	} else {
		e.dyns[tmc.JobID] = rec
	}
	e.mu.Unlock()
	return nil
}

func waitStart(l *startLog, id int) error {
	end := time.Now().Add(waitLimit)
	for {
		if _, n := l.get(id); n > 0 {
			return nil
		}
		if time.Now().After(end) {
			return fmt.Errorf("job %d did not start within %v", id, waitLimit)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// submission is one qsub as its submitter saw it.
type submission struct {
	id       int
	evolving bool
	t0, ack  time.Time
	dial     time.Duration
	request  time.Duration
	root     int // span index, -1 untraced
	op       int64
}

// livePhase is one measured stretch of submits.
type livePhase struct {
	subs    []submission
	failed  []string
	iters   uint64
	elapsed time.Duration
}

// submitLoop is one closed-loop user: the calls cmd/qsub makes (dial,
// qsub request, decode), then the next submit.
func (e *liveEnv) submitLoop(rng *rand.Rand, end time.Time, limit int, tr *Tracer, out *[]submission, fails *[]string) {
	addr := e.lc.srv.Addr()
	for n := 0; time.Now().Before(end) && (limit == 0 || n < limit); n++ {
		evolving := rng.Float64() < liveEvolvingFrac
		spec := proto.JobSpec{
			Name: "mix", User: fmt.Sprintf("u%d", rng.Intn(8)), Cores: liveJobCores,
			WallSecs: int64(60 + rng.Intn(240)), Script: e.rigid,
		}
		if evolving {
			spec.Script, spec.Evolving = e.evolve, true
		}
		_, op := e.tracer()
		s := submission{evolving: evolving, op: op}
		s.t0 = time.Now()
		s.root = tr.Begin("op.submit", -1, op)
		sp := tr.Begin("proto.dial", s.root, op)
		c, err := proto.Dial(addr)
		tr.End(sp)
		if err != nil {
			*fails = append(*fails, fmt.Sprintf("live-mix: dial: %v", err))
			continue
		}
		t1 := time.Now()
		s.dial = t1.Sub(s.t0)
		c.SetReadTimeout(waitLimit)
		sp = tr.Begin("proto.qsub_request", s.root, op)
		var resp proto.QSubResp
		env, err := c.Request(proto.TQSub, spec)
		if err == nil {
			err = env.Decode(&resp)
		}
		tr.End(sp)
		s.ack = time.Now()
		s.request = s.ack.Sub(t1)
		_ = c.Close() // the reply is in hand; the server closes its side too
		switch {
		case err != nil:
		case resp.Error != "":
			err = errors.New(resp.Error)
		case resp.JobID <= 0:
			err = fmt.Errorf("reply carries no job id")
		}
		if err != nil {
			*fails = append(*fails, fmt.Sprintf("live-mix: qsub: %v", err))
			continue
		}
		s.id = resp.JobID
		*out = append(*out, s)
	}
}

// measure runs the submitters until end (or limit submits each).
func (e *liveEnv) measure(seed int64, seconds float64, limit int, tr *Tracer) *livePhase {
	e.mu.Lock()
	e.tr = tr
	e.mu.Unlock()
	ph := &livePhase{}
	it0 := e.sched.Iterations()
	start := time.Now()
	end := deadline(seconds)
	subs := make([][]submission, liveSubmitters)
	fails := make([][]string, liveSubmitters)
	var wg sync.WaitGroup
	for i := 0; i < liveSubmitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
			e.submitLoop(rng, end, limit, tr, &subs[i], &fails[i])
		}(i)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for i := range subs {
		ph.subs = append(ph.subs, subs[i]...)
		ph.failed = append(ph.failed, fails[i]...)
	}
	e.drain(ph)
	ph.iters = e.sched.Iterations() - it0
	e.mu.Lock()
	e.tr = nil
	e.mu.Unlock()
	return ph
}

// drain waits until every submitted job has run to completion.
func (e *liveEnv) drain(ph *livePhase) {
	end := time.Now().Add(waitLimit)
	for time.Now().Before(end) {
		pending := 0
		st := e.lc.srv.QStat()
		done := map[int]bool{}
		for _, j := range st.Jobs {
			if j.State == "completed" {
				done[j.ID] = true
			}
		}
		for _, s := range ph.subs {
			if !done[s.id] {
				pending++
			}
		}
		if pending == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// check folds the phase into the report: every submit got an id and
// started exactly once, every dynamic request was answered exactly once.
func (e *liveEnv) check(rep *Report, ph *livePhase, tr *Tracer) (ack, start, dyn, grant, reject, dynfree, dial, request, ackStart Sample) {
	rep.Attempted += len(ph.failed)
	for _, f := range ph.failed {
		rep.Failf("%s", f)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := make(map[int]bool, len(ph.subs))
	for _, s := range ph.subs {
		rep.Attempted++
		if seen[s.id] {
			rep.Failf("live-mix: job id %d handed out twice", s.id)
			continue
		}
		seen[s.id] = true
		at, n := e.starts.get(s.id)
		if n != 1 {
			rep.Failf("live-mix: job %d started %d times, want 1", s.id, n)
			continue
		}
		ack.Add(s.ack.Sub(s.t0))
		start.Add(at.Sub(s.t0))
		dial.Add(s.dial)
		request.Add(s.request)
		ackStart.Add(at.Sub(s.ack))
		if s.root >= 0 {
			// The application often starts before the client has read
			// the ack; only a later start leaves an ack→start span.
			if at.After(s.ack) {
				tr.Record("mom.ack_to_start", s.root, s.op, s.ack, at)
			}
			tr.EndAt(s.root, at)
		}
		if !s.evolving {
			continue
		}
		rep.Attempted++
		d := e.dyns[s.id]
		switch {
		case d == nil:
			rep.Failf("live-mix: evolving job %d never answered its dynamic request", s.id)
		case d.transErr != nil:
			rep.Failf("live-mix: evolving job %d: %v", s.id, d.transErr)
		case d.answers != 1:
			rep.Failf("live-mix: evolving job %d got %d answers, want 1", s.id, d.answers)
		default:
			dyn.Add(d.rtt)
			if d.granted {
				grant.Add(d.rtt)
				dynfree.Add(d.free)
			} else {
				reject.Add(d.rtt)
			}
		}
	}
	return
}

// runLiveMix measures the live submit and dynamic-request path.
func runLiveMix(cfg Config) *Report {
	rep := newReport()
	setups := 9
	if cfg.Short {
		setups = 1
	}
	env, setupS, err := setUp(setups, setupLive, func(e *liveEnv) { e.lc.close() })
	if err != nil {
		rep.Checkf(false, "live-mix: set-up: %v", err)
		return rep
	}
	defer env.lc.close()
	rep.Set("setup_s", setupS, "s", setups)

	if cfg.Short {
		env.report(rep, env.measure(cfg.Seed, waitLimit.Seconds(), 50, nil), nil)
		env.checkDrained(rep)
		return rep
	}
	// A fixed number of submits fills the caches before anything is
	// timed. The heap is read after them, so that it measures the same
	// work on every run rather than however many jobs the timed phase
	// got through.
	env.check(rep, env.measure(cfg.Seed^0x5eed, waitLimit.Seconds(), liveWarmupSubmits, nil), nil)
	rep.Set("heap_inuse_mb", heapInuseMB(), "MB", 0)
	if !cfg.Trace {
		env.report(rep, env.measure(cfg.Seed, cfg.Seconds, 0, nil), nil)
	} else {
		base := env.measure(cfg.Seed, cfg.Seconds/2, 0, nil)
		baseStart := env.report(newReport(), base, nil)
		tr := NewTracer(1 << 16)
		ph := env.measure(cfg.Seed, cfg.Seconds/2, 0, tr)
		tracedStart := env.report(rep, ph, tr)
		rep.Spans = tr.Spans()
		reportOverhead(rep, "submit_start", baseStart, tracedStart)
		reportShares(rep, rep.Spans)
	}
	env.checkDrained(rep)
	return rep
}

// report folds a phase into rep and returns its submit→start sample.
func (e *liveEnv) report(rep *Report, ph *livePhase, tr *Tracer) *Sample {
	ack, start, dyn, grant, reject, dynfree, dial, request, ackStart := e.check(rep, ph, tr)
	secs := ph.elapsed.Seconds()
	rep.Set("submit_rate_jps", float64(len(ph.subs))/secs, "1/s", len(ph.subs))
	rep.SetQuantiles("submit_ack", &ack, 1e6, "ms")
	rep.SetQuantiles("submit_start", &start, 1e6, "ms")
	rep.SetQuantiles("dyn_rtt", &dyn, 1e6, "ms")
	rep.Set("proto.dial_p50_us", dial.Quantile(0.5)/1e3, "us", dial.N())
	rep.Set("proto.qsub_request_p50_us", request.Quantile(0.5)/1e3, "us", request.N())
	rep.Set("mom.ack_to_start_p50_us", ackStart.Quantile(0.5)/1e3, "us", ackStart.N())
	if n := len(ph.subs); n > 0 {
		rep.Set("core.iterations_per_op", float64(ph.iters)/float64(n), "count", n)
	}
	rep.Set("tm.dynget_grant_p50_ms", grant.Quantile(0.5)/1e6, "ms", grant.N())
	rep.Set("tm.dynget_reject_p50_ms", reject.Quantile(0.5)/1e6, "ms", reject.N())
	rep.Set("tm.dynfree_p50_us", dynfree.Quantile(0.5)/1e3, "us", dynfree.N())
	if dyn.N() > 0 {
		rep.Set("core.grant_ratio", float64(grant.N())/float64(dyn.N()), "ratio", dyn.N())
	}
	return &start
}

// checkDrained checks that, with every submitted job finished, only the
// pinned job holds cores and the whole-machine jobs are still queued.
func (e *liveEnv) checkDrained(rep *Report) {
	st := e.lc.srv.QStat()
	var pinHost string
	queued := 0
	for _, j := range st.Jobs {
		if j.ID == e.pinID && len(j.Hosts) == 1 {
			pinHost = j.Hosts[0].Node
		}
		if j.State == "queued" {
			queued++
		}
	}
	rep.Checkf(queued == liveWholeMachineJobs, "live-mix: %d jobs queued after the drain, want %d", queued, liveWholeMachineJobs)
	for _, n := range st.Nodes {
		want := 0
		if n.Name == pinHost {
			want = 1
		}
		rep.Checkf(n.Used == want, "live-mix: node %s uses %d cores after the drain, want %d", n.Name, n.Used, want)
	}
}
