// Package mauid implements the scheduler daemon (the Maui analog) as a
// separate process from the server, matching the paper's architecture
// (Fig. 2: pbs_server and the Maui scheduler are distinct daemons on
// the headnode). Each iteration the daemon pulls a workload/resource
// snapshot from the server (sched.pull), plans against a local mirror
// with the exact same core.Scheduler the simulator uses, and commits
// its decisions (sched.commit). The server re-validates every action,
// so a commit computed on a stale snapshot degrades gracefully.
//
// The daemon keeps the server's queue between cycles and pulls it as a
// delta: the jobs removed and added since the serial it last saw.
// Nodes, running jobs and dynamic requests are few and come whole.
package mauid

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Daemon is the external scheduler.
type Daemon struct {
	srvAddr  string
	sched    *core.Scheduler
	interval time.Duration
	closed   chan struct{} //schedlint:chan-owner Close
	done     chan struct{} //schedlint:chan-owner Start (the iteration goroutine defers the close on exit)

	// Proto selects the wire codec for server connections (see
	// proto.Mode); the zero value negotiates automatically. Set before
	// Start.
	Proto proto.Mode

	// queue is the server's queue as of serial since of server
	// incarnation, in server order. since 0 means nothing is kept and
	// the next pull is full.
	queue       []*job.Job //schedlint:confined RunOnce only the goroutine running RunOnce (the loop, or a caller that never Starts) touches the kept queue
	since       uint64     //schedlint:confined RunOnce kept-queue bookkeeping, as queue
	incarnation uint64     //schedlint:confined RunOnce kept-queue bookkeeping, as queue
	// fullPulls makes every pull a full one, the reference the
	// differential tests and benchmarks compare deltas against.
	fullPulls bool
}

// New creates a daemon that schedules the server at srvAddr every
// interval (plus immediately after any iteration that made progress).
// Each pull and commit must finish within 8 × interval, the loop's
// backoff cap, or the cycle fails and is retried.
func New(srvAddr string, sched *core.Scheduler, interval time.Duration) *Daemon {
	if interval <= 0 {
		interval = time.Second
	}
	return &Daemon{
		srvAddr:  srvAddr,
		sched:    sched,
		interval: interval,
		closed:   make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Scheduler returns the planning core (for fairness inspection).
func (d *Daemon) Scheduler() *core.Scheduler { return d.sched }

// Start begins the iteration loop. Iterations that fail (an
// unreachable or restarting server) back off with capped exponential
// delay and deterministic jitter instead of hammering the headnode at
// the full polling rate; the first success resumes the normal cadence.
func (d *Daemon) Start() {
	go func() {
		defer close(d.done)
		pol := backoff.Policy{Max: d.ioLimit()}
		rng := backoff.NewRand("mauid")
		failures := 0
		t := time.NewTimer(d.interval) //lint:wallclock the external scheduler polls the server in real time
		defer t.Stop()
		for {
			select {
			case <-d.closed:
				return
			case <-t.C:
			}
			applied, _, err := d.RunOnce()
			if err != nil {
				t.Reset(pol.Delay(failures, rng))
				failures++
				continue
			}
			failures = 0
			// Progress usually enables more progress (freed siblings,
			// unblocked reservations): iterate again immediately.
			for applied > 0 {
				applied, _, err = d.RunOnce()
				if err != nil {
					break
				}
			}
			t.Reset(d.interval)
		}
	}()
}

// Close stops the loop.
func (d *Daemon) Close() {
	select {
	case <-d.closed:
	default:
		close(d.closed)
	}
	<-d.done
}

// RunOnce performs a single pull→plan→commit cycle and returns how
// many actions the server applied and skipped.
func (d *Daemon) RunOnce() (applied, skipped int, err error) {
	state, mirror, err := d.sync()
	if err != nil {
		return 0, 0, err
	}
	d.plan(state, mirror)
	if len(mirror.actions) == 0 {
		return 0, 0, nil
	}
	resp, err := d.commit(proto.SchedCommit{Serial: state.Serial, Actions: mirror.actions})
	if err != nil {
		return 0, 0, err
	}
	return resp.Applied, resp.Skipped, nil
}

// sync pulls the state, brings the kept queue up to date, and builds
// the cycle's mirror from it. A reply that cannot be applied drops the
// kept queue, so the next pull is full.
func (d *Daemon) sync() (*proto.SchedState, *mirror, error) {
	state, err := d.pull()
	if err != nil {
		return nil, nil, err
	}
	var m *mirror
	restorable, err := d.applyQueue(state)
	if err == nil {
		// The mirror's starts remove jobs from its queue; the kept
		// one changes only with the server's.
		m, err = buildMirror(state, slices.Clone(d.queue))
	}
	if err != nil || !restorable {
		// A job settle cannot restore is planned on once, then pulled
		// again.
		d.forget()
	}
	if err != nil {
		return nil, nil, err
	}
	return state, m, nil
}

// applyQueue replaces the kept queue with a full reply's, or drops a
// delta's removed jobs and appends its added ones. It reports whether
// every new job was pulled in the state settle restores (queued, not
// backfilled), which a queued job on the server always is.
func (d *Daemon) applyQueue(st *proto.SchedState) (restorable bool, err error) {
	if st.Since != 0 && (st.Since != d.since || st.Incarnation != d.incarnation) {
		return false, fmt.Errorf("mauid: delta against serial %d of incarnation %d, have %d of %d",
			st.Since, st.Incarnation, d.since, d.incarnation)
	}
	added, err := jobsOf(st.Queued)
	if err != nil {
		return false, err
	}
	if st.Since == 0 {
		d.queue = added
	} else {
		for _, id := range st.Removed {
			i := slices.IndexFunc(d.queue, func(j *job.Job) bool { return int(j.ID) == id })
			if i < 0 {
				return false, fmt.Errorf("mauid: delta removes job %d, which is not queued", id)
			}
			d.queue = slices.Delete(d.queue, i, i+1)
		}
		d.queue = append(d.queue, added...)
	}
	d.since, d.incarnation = st.Serial, st.Incarnation
	for _, j := range added {
		if j.State != job.Queued || j.Backfilled {
			return false, nil
		}
	}
	return true, nil
}

// plan runs one scheduling iteration on the mirror, which records the
// decisions as commit actions, then returns the kept jobs it touched to
// their pulled state.
func (d *Daemon) plan(st *proto.SchedState, m *mirror) {
	d.sched.Recycle(d.sched.Iterate(sim.Time(st.NowMS), m))
	if !m.settle() {
		d.forget()
	}
}

// forget drops the kept queue; the next pull is full.
func (d *Daemon) forget() {
	d.queue, d.since, d.incarnation = nil, 0, 0
}

// ioLimit bounds one exchange with the server — dial, handshake and
// reply together — so a server that accepts but never answers fails
// the cycle instead of wedging RunOnce and, through it, Close. It is
// the loop's backoff cap (8 × interval): an exchange never waits
// longer than the slowest retry cadence.
func (d *Daemon) ioLimit() time.Duration { return 8 * d.interval }

// request runs one request/reply exchange on a fresh connection within
// ioLimit. The dial and handshake get half the budget (a ModeAuto
// handshake that times out still re-dials plain v1), the reply the
// rest.
//
//lint:wallclock server I/O deadlines are genuine wall-clock protocol timeouts
func (d *Daemon) request(t proto.MsgType, payload any) (*proto.Envelope, error) {
	limit := d.ioLimit()
	deadline := time.Now().Add(limit)
	c, err := proto.DialModeTimeout(d.srvAddr, d.Proto, limit/2)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	left := time.Until(deadline)
	if left <= 0 {
		return nil, fmt.Errorf("mauid: %s: no reply within %v", t, limit)
	}
	c.SetReadTimeout(left)
	c.SetWriteTimeout(left)
	return c.Request(t, payload)
}

func (d *Daemon) pull() (*proto.SchedState, error) {
	req := proto.SchedPull{Since: d.since, Incarnation: d.incarnation}
	if d.fullPulls {
		req = proto.SchedPull{}
	}
	env, err := d.request(proto.TSchedPull, req)
	if err != nil {
		return nil, err
	}
	if env.Type != proto.TSchedState {
		return nil, fmt.Errorf("mauid: unexpected reply %s", env.Type)
	}
	var st proto.SchedState
	if err := env.Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (d *Daemon) commit(c proto.SchedCommit) (*proto.SchedCommitResp, error) {
	env, err := d.request(proto.TSchedCommit, c)
	if err != nil {
		return nil, err
	}
	var resp proto.SchedCommitResp
	if err := env.Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// mirror implements core.ResourceManager over a pulled state:
// decisions mutate only the local mirror and are recorded as commit
// actions. It also implements core.ChangeTracker — epochs are seeded
// from the pulled serial and advance with the mirror's own mutations —
// so the scheduler's epoch machinery sees an honest tracker.
//
// Every RunOnce builds a fresh mirror, and both the skip and the order
// cache key on RM identity, so they stay cold across cycles: a new
// pull is a new world. Only the queued job objects carry over, from
// the daemon's kept queue; nodes, running jobs and dyn requests are
// built from each pull. The mirror handed to Iterate equals the one a
// full snapshot builds (newMirror), field for field and in order.
type mirror struct {
	cl      *cluster.Cluster
	queued  []*job.Job        //schedlint:epoch-guarded by bumpQueue
	active  []*job.Job        //schedlint:epoch-guarded by bump
	dyn     []*job.DynRequest //schedlint:epoch-guarded by bump
	serial  uint64
	qserial uint64
	actions []proto.SchedAction
	// tried lists the queued jobs the cycle tried to start; keep is
	// false when the cycle may change a queued job beyond what settle
	// restores.
	tried []*job.Job
	keep  bool
}

// bump advances the state epoch.
func (m *mirror) bump() { m.serial++ }

// bumpQueue advances both epochs: a queue-membership change also
// invalidates state-level caches.
//
//schedlint:epoch-bump subsumes bump
func (m *mirror) bumpQueue() {
	m.serial++
	m.qserial++
}

// StateEpoch implements core.ChangeTracker.
func (m *mirror) StateEpoch() uint64 { return m.serial }

// QueueEpoch implements core.ChangeTracker.
func (m *mirror) QueueEpoch() uint64 { return m.qserial }

// mirrorFillID marks the synthetic allocations that reproduce the
// snapshot's per-node usage in the mirror cluster.
const mirrorFillID = job.ID(1 << 30)

// newMirror builds a mirror from a full snapshot.
func newMirror(st *proto.SchedState) (*mirror, error) {
	queued, err := jobsOf(st.Queued)
	if err != nil {
		return nil, err
	}
	return buildMirror(st, queued)
}

// buildMirror builds a mirror over queued, the queue in server order,
// and the nodes, running jobs and dyn requests of st.
func buildMirror(st *proto.SchedState, queued []*job.Job) (*mirror, error) {
	m := &mirror{cl: cluster.New(0, 0), queued: queued, serial: st.Serial, qserial: st.Serial, keep: true}
	for i, n := range st.Nodes {
		node := m.cl.AddNode(n.Name, n.Cores)
		if n.State != "up" {
			m.cl.SetNodeState(node.ID, cluster.Down)
			continue
		}
		if n.Used > 0 {
			// Reproduce the usage with a synthetic allocation so the
			// planner sees correct idle counts per node.
			if m.cl.AllocateNodes(mirrorFillID+job.ID(i), 1, n.Used) == nil {
				return nil, fmt.Errorf("mauid: cannot mirror %d used cores on %s", n.Used, n.Name)
			}
		}
	}
	active, err := jobsOf(st.Active)
	if err != nil {
		return nil, err
	}
	m.active = active
	// Only jobs a pending dyn request names need an id index. A later
	// entry wins, and active jobs come after queued ones, so an id
	// listed in both resolves to the active job.
	byID := make(map[int]*job.Job, len(st.Dyn))
	for _, dr := range st.Dyn {
		byID[dr.JobID] = nil
	}
	for _, j := range m.active {
		if _, ok := byID[int(j.ID)]; ok {
			byID[int(j.ID)] = j
		}
	}
	for _, dr := range st.Dyn {
		if byID[dr.JobID] != nil {
			continue
		}
		// The server parks dyn requests for running jobs only; one
		// naming a queued job would have the cycle change that job
		// beyond what settle restores.
		for i := len(m.queued) - 1; i >= 0; i-- {
			if int(m.queued[i].ID) == dr.JobID {
				byID[dr.JobID] = m.queued[i]
				m.keep = false
				break
			}
		}
	}
	dyn := append([]proto.SchedDynReq(nil), st.Dyn...)
	sort.Slice(dyn, func(i, k int) bool { return dyn[i].Seq < dyn[k].Seq })
	for _, dr := range dyn {
		j := byID[dr.JobID]
		if j == nil {
			continue
		}
		m.dyn = append(m.dyn, &job.DynRequest{
			Job: j, Cores: dr.Cores, Nodes: dr.Nodes, PPN: dr.PPN, Seq: dr.Seq,
			Deadline: sim.Time(dr.DeadlineMS),
		})
	}
	return m, nil
}

// jobsOf converts pulled job records. An unknown state is an error: a
// job must not be planned as queued because its state was misread.
func jobsOf(sjs []proto.SchedJob) ([]*job.Job, error) {
	jobs := make([]*job.Job, 0, len(sjs))
	for _, sj := range sjs {
		st, err := parseState(sj.State)
		if err != nil {
			return nil, err
		}
		class := job.Rigid
		if sj.Evolving {
			class = job.Evolving
		}
		jobs = append(jobs, &job.Job{
			ID:    job.ID(sj.ID),
			Name:  sj.Name,
			Cred:  job.Credentials{User: sj.User, Group: sj.Group},
			Class: class, Cores: sj.Cores, DynCores: sj.DynCores,
			Walltime:       sim.Duration(sj.WallSecs) * sim.Second,
			SubmitTime:     sim.Time(sj.SubmitMS),
			StartTime:      sim.Time(sj.StartMS),
			State:          st,
			SystemPriority: sj.SysPrio,
			Backfilled:     sj.Backfilled,
		})
	}
	return jobs, nil
}

// settle puts the queued jobs the cycle tried to start back in the
// state a pull reports for a queued job: queued, not backfilled. The
// kept queue hands the same objects to the next cycle, and a start the
// server skips leaves the job queued (one it applies is removed by the
// next delta). Starting and the backfill mark are the only changes a
// cycle makes to a queued job. settle reports whether the kept queue
// may serve the next cycle.
func (m *mirror) settle() bool {
	for _, j := range m.tried {
		j.State = job.Queued
		j.Backfilled = false
	}
	return m.keep
}

func parseState(s string) (job.State, error) {
	for _, st := range []job.State{job.Queued, job.Running, job.DynQueued, job.Completed, job.Cancelled, job.Preempted} {
		if st.String() == s {
			return st, nil
		}
	}
	return job.Queued, fmt.Errorf("mauid: unknown state %q", s)
}

func (m *mirror) Cluster() *cluster.Cluster      { return m.cl }
func (m *mirror) QueuedJobs() []*job.Job         { return append([]*job.Job(nil), m.queued...) }
func (m *mirror) ActiveJobs() []*job.Job         { return append([]*job.Job(nil), m.active...) }
func (m *mirror) DynRequests() []*job.DynRequest { return append([]*job.DynRequest(nil), m.dyn...) }

func (m *mirror) StartJob(j *job.Job) (cluster.Alloc, error) {
	m.tried = append(m.tried, j)
	alloc := m.cl.Allocate(j.ID, j.Cores)
	if alloc == nil {
		return nil, fmt.Errorf("mauid: mirror cannot place %s", j.ID)
	}
	if i := slices.Index(m.queued, j); i >= 0 {
		m.queued = slices.Delete(m.queued, i, i+1)
	}
	j.State = job.Running
	m.active = append(m.active, j)
	m.bumpQueue()
	m.actions = append(m.actions, proto.SchedAction{Kind: "start", JobID: int(j.ID)})
	return alloc, nil
}

func (m *mirror) GrantDyn(r *job.DynRequest) (cluster.Alloc, error) {
	var alloc cluster.Alloc
	if r.Nodes > 0 {
		alloc = m.cl.AllocateNodes(r.Job.ID, r.Nodes, r.PPN)
	} else {
		alloc = m.cl.Allocate(r.Job.ID, r.Cores)
	}
	if alloc == nil {
		return nil, fmt.Errorf("mauid: mirror cannot place grant for %s", r.Job.ID)
	}
	r.Job.DynCores += r.TotalCores()
	r.Job.State = job.Running
	m.removeDyn(r)
	m.bump()
	m.actions = append(m.actions, proto.SchedAction{Kind: "grant", JobID: int(r.Job.ID)})
	return alloc, nil
}

func (m *mirror) RejectDyn(r *job.DynRequest, reason string) {
	r.Job.State = job.Running
	m.removeDyn(r)
	m.bump()
	m.actions = append(m.actions, proto.SchedAction{Kind: "reject", JobID: int(r.Job.ID), Reason: reason})
}

func (m *mirror) removeDyn(r *job.DynRequest) {
	for i, d := range m.dyn {
		if d == r {
			m.dyn = append(m.dyn[:i], m.dyn[i+1:]...)
			return
		}
	}
}

// Preempt is not available through the remote protocol; sites wanting
// preemption for dynamic requests run the embedded scheduler.
func (m *mirror) Preempt(j *job.Job) error {
	return fmt.Errorf("mauid: preemption not supported over the sched protocol")
}
