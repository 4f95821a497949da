package serverd

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/proto"
	"repro/internal/sim"
)

// serverRM adapts the live server to core.ResourceManager. All methods
// are invoked with s.mu held (from schedLoop or applyCommit).
type serverRM Server

func (r *serverRM) s() *Server { return (*Server)(r) }

// StateEpoch implements core.ChangeTracker: it advances on every
// scheduler-visible mutation, letting canSkip elide whole iterations
// while the daemon is idle between kicks.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) StateEpoch() uint64 { return r.serial }

// QueueEpoch implements the queue half of core.ChangeTracker: it
// advances only on queue-membership changes, keying the scheduler's
// sorted-order cache.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) QueueEpoch() uint64 { return r.qserial }

// Cluster returns the live cluster mirror.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) Cluster() *cluster.Cluster { return r.cl }

// QueuedJobs returns the queued jobs in entry order (a requeued job
// re-enters at the end).
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) QueuedJobs() []*job.Job {
	return append([]*job.Job(nil), r.queued...)
}

// ActiveJobs returns running/dynqueued jobs in ID order.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) ActiveJobs() []*job.Job {
	out := make([]*job.Job, 0, len(r.active))
	for _, j := range r.active {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// DynRequests returns the pending dynamic requests in FIFO order.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) DynRequests() []*job.DynRequest {
	return append([]*job.DynRequest(nil), r.dyn...)
}

// hostsOf renders an allocation as host slices with mom addresses.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) hostsOf(alloc cluster.Alloc) []proto.HostSlice {
	out := make([]proto.HostSlice, 0, len(alloc))
	for _, sl := range alloc {
		ni := r.nodeByID[sl.NodeID]
		if ni == nil {
			continue
		}
		out = append(out, proto.HostSlice{Node: ni.node.Name, Addr: ni.addr, Cores: sl.Cores})
	}
	return out
}

// StartJob allocates resources and dispatches the job to its mother
// superior (the first allocated host).
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) StartJob(j *job.Job) (cluster.Alloc, error) {
	s := r.s()
	ji, ok := s.jobs[int(j.ID)]
	if !ok || j.State != job.Queued {
		return nil, fmt.Errorf("serverd: %s not queued", j.ID)
	}
	var alloc cluster.Alloc
	if ji.spec.Nodes > 0 {
		alloc = s.cl.AllocateNodes(j.ID, ji.spec.Nodes, ji.spec.PPN)
	} else {
		alloc = s.cl.Allocate(j.ID, j.Cores)
	}
	if alloc == nil {
		return nil, fmt.Errorf("serverd: cannot place %s", j.ID)
	}
	hosts := r.hostsOf(alloc)
	if len(hosts) == 0 {
		s.cl.Release(j.ID)
		return nil, fmt.Errorf("serverd: no registered mom for allocation")
	}
	ms := s.nodes[hosts[0].Node]
	if ms == nil || ms.conn == nil {
		s.cl.Release(j.ID)
		return nil, fmt.Errorf("serverd: mother superior %s unreachable", hosts[0].Node)
	}
	j.State = job.Running
	j.StartTime = s.now()
	s.active[int(j.ID)] = j
	ji.hosts = hosts
	ji.msNode = hosts[0].Node
	s.rec.ObserveUsage(s.now(), s.cl.UsedCores())
	s.dequeueLocked(j)
	// Walltime enforcement.
	wall := sim.ToReal(j.Walltime)
	id := int(j.ID)
	//lint:wallclock walltime limits are enforced in real time on the live daemon
	ji.killTimer = time.AfterFunc(wall, func() {
		s.mu.Lock()
		if info, ok := s.jobs[id]; ok && info.j.Active() {
			s.killLocked(info, "walltime")
		}
		s.mu.Unlock()
		s.Kick()
	})
	if err := ms.conn.Send(proto.TRunJob, proto.RunJobReq{JobID: id, Spec: ji.spec, Hosts: hosts}); err != nil {
		// Mom link failed mid-dispatch: roll back to exactly the
		// queued record the job had. The re-entry is a second round of
		// mutations after the dispatch bump, so it needs its own —
		// without it a scheduler cache validated against the dispatch
		// epoch would keep serving the job as started when it is in
		// fact back in the queue.
		ji.killTimer.Stop()
		s.cl.Release(j.ID)
		delete(s.active, id)
		j.State = job.Queued
		j.StartTime = 0
		ji.hosts = nil
		ji.msNode = ""
		s.rec.ObserveUsage(s.now(), s.cl.UsedCores())
		s.enqueueLocked(j)
		return nil, fmt.Errorf("serverd: dispatch to %s: %w", hosts[0].Node, err)
	}
	s.logf("job %d started on %s (ms=%s)", id, cluster.Alloc(alloc).String(), ji.msNode)
	return alloc, nil
}

// GrantDyn expands the job and answers the parked tm_dynget through
// the mother superior (Fig. 3 steps 5–7).
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) GrantDyn(req *job.DynRequest) (cluster.Alloc, error) {
	s := r.s()
	ji, ok := s.jobs[int(req.Job.ID)]
	if !ok {
		return nil, fmt.Errorf("serverd: unknown job %s", req.Job.ID)
	}
	var alloc cluster.Alloc
	if req.Nodes > 0 {
		alloc = s.cl.AllocateNodes(req.Job.ID, req.Nodes, req.PPN)
	} else {
		alloc = s.cl.Allocate(req.Job.ID, req.Cores)
	}
	if alloc == nil {
		return nil, fmt.Errorf("serverd: cannot place dynamic request for %s", req.Job.ID)
	}
	hosts := r.hostsOf(alloc)
	req.Job.DynCores += req.TotalCores()
	req.Job.State = job.Running
	if !ji.granted {
		ji.granted = true
		ji.dynGrant = s.now()
	}
	ji.hosts = append(ji.hosts, hosts...)
	s.dropDynLocked(int(req.Job.ID))
	s.rec.ObserveUsage(s.now(), s.cl.UsedCores())
	s.bumpLocked()
	s.deliverVerdictLocked(ji, proto.DynGetResp{
		JobID: int(req.Job.ID), Granted: true, Hosts: hosts,
	})
	s.logf("dyn grant job=%d +%d cores", req.Job.ID, req.TotalCores())
	return alloc, nil
}

// RejectDyn answers the parked tm_dynget negatively.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) RejectDyn(req *job.DynRequest, reason string) {
	s := r.s()
	req.Job.State = job.Running
	s.dropDynLocked(int(req.Job.ID))
	s.bumpLocked()
	if ji := s.jobs[int(req.Job.ID)]; ji != nil {
		s.deliverVerdictLocked(ji, proto.DynGetResp{
			JobID: int(req.Job.ID), Granted: false, Reason: reason,
		})
	}
	s.logf("dyn reject job=%d: %s", req.Job.ID, reason)
}

// Preempt kills a running job on its mom and requeues it.
//
//lint:locked serverRM methods run with s.mu held (schedLoop, applyCommit, dynGet)
func (r *serverRM) Preempt(j *job.Job) error {
	s := r.s()
	ji, ok := s.jobs[int(j.ID)]
	if !ok || !j.Active() {
		return fmt.Errorf("serverd: %s not active", j.ID)
	}
	s.dropDynLocked(int(j.ID))
	s.cl.Release(j.ID)
	delete(s.active, int(j.ID))
	if ji.killTimer != nil {
		ji.killTimer.Stop()
	}
	s.sendMomLocked(s.nodes[ji.msNode], proto.TKillJob, proto.KillJobReq{JobID: int(j.ID)})
	j.State = job.Queued
	j.StartTime = 0
	j.DynCores = 0
	j.Backfilled = false
	ji.hosts = nil
	ji.msNode = ""
	s.rec.ObserveUsage(s.now(), s.cl.UsedCores())
	s.enqueueLocked(j)
	s.logf("job %d preempted and requeued", j.ID)
	return nil
}

// --- external scheduler protocol ---

// snapshot renders the scheduler state for a sched.pull. Nodes, active
// jobs and dyn requests are always whole. The queue is a delta against
// pull.Since when the server can serve one: the pull names this
// server's incarnation, and Since is neither older than the removal log
// nor ahead of the serial. Otherwise Since is 0 and the queue is whole,
// because a full snapshot is the delta against serial 0. A nil pull
// (no payload) is answered without the incarnation, in exactly the
// bytes a full snapshot always had.
func (s *Server) snapshot(pull *proto.SchedPull) proto.SchedState {
	s.mu.Lock()
	defer s.mu.Unlock()
	var since uint64
	if pull != nil && pull.Incarnation == s.incarnation && pull.Since >= s.exitFloor && pull.Since <= s.serial {
		since = pull.Since
	}
	// Entry serials rise along the queue, so the jobs added since are
	// a suffix.
	added := s.queued
	if since > 0 {
		at := s.queuedAt
		added = added[sort.Search(len(at), func(k int) bool { return at[k] > since }):]
	}
	nodes := s.cl.Nodes()
	active := (*serverRM)(s).ActiveJobs()
	// Presized lists keep growslice out of the s.mu hold; an empty one
	// stays nil so the wire still reads null.
	st := proto.SchedState{
		NowMS: int64(s.now()), Serial: s.serial, Since: since,
		Nodes:  slices.Grow([]proto.NodeStatus(nil), len(nodes)),
		Queued: slices.Grow([]proto.SchedJob(nil), len(added)),
		Active: slices.Grow([]proto.SchedJob(nil), len(active)),
		Dyn:    slices.Grow([]proto.SchedDynReq(nil), len(s.dyn)),
	}
	if pull != nil {
		st.Incarnation = s.incarnation
	}
	if since > 0 {
		// Only jobs the scheduler holds are named: those that entered
		// by Since. A job that came and went after it is news to
		// nobody.
		exits := s.exits
		for _, e := range exits[sort.Search(len(exits), func(k int) bool { return exits[k].serial > since }):] {
			if e.enq <= since {
				st.Removed = append(st.Removed, e.id)
			}
		}
	}
	for _, n := range nodes {
		st.Nodes = append(st.Nodes, proto.NodeStatus{
			Name: n.Name, Cores: n.Cores, Used: n.Used(), State: n.State.String(),
		})
	}
	conv := func(j *job.Job) proto.SchedJob {
		return proto.SchedJob{
			ID: int(j.ID), Name: j.Name, User: j.Cred.User, Group: j.Cred.Group,
			State: j.State.String(), Cores: j.Cores, DynCores: j.DynCores,
			WallSecs: int64(j.Walltime / sim.Second),
			SubmitMS: int64(j.SubmitTime), StartMS: int64(j.StartTime),
			SysPrio: j.SystemPriority, Evolving: j.Class == job.Evolving,
			Backfilled: j.Backfilled,
		}
	}
	for _, j := range added {
		st.Queued = append(st.Queued, conv(j))
	}
	for _, j := range active {
		st.Active = append(st.Active, conv(j))
	}
	for _, r := range s.dyn {
		st.Dyn = append(st.Dyn, proto.SchedDynReq{
			JobID: int(r.Job.ID), Cores: r.Cores, Nodes: r.Nodes, PPN: r.PPN, Seq: r.Seq,
			DeadlineMS: int64(r.Deadline),
		})
	}
	return st
}

// applyCommit validates and applies an external scheduler's decisions.
// Each action re-validates against current state, so a commit computed
// on a stale snapshot degrades gracefully (stale actions are skipped
// and will be re-planned on the next pull).
func (s *Server) applyCommit(c proto.SchedCommit) proto.SchedCommitResp {
	s.mu.Lock()
	defer s.mu.Unlock()
	rm := (*serverRM)(s)
	var resp proto.SchedCommitResp
	for _, a := range c.Actions {
		ji, ok := s.jobs[a.JobID]
		if !ok {
			resp.Skipped++
			continue
		}
		switch a.Kind {
		case "start":
			if ji.j.State != job.Queued {
				resp.Skipped++
				continue
			}
			if _, err := rm.StartJob(ji.j); err != nil {
				resp.Skipped++
				continue
			}
			resp.Applied++
		case "grant":
			req := s.findDynLocked(a.JobID)
			if req == nil {
				resp.Skipped++
				continue
			}
			if _, err := rm.GrantDyn(req); err != nil {
				// Placement failed after a stale plan: reject so the
				// application is not left blocked.
				rm.RejectDyn(req, "resources changed; retry")
				resp.Skipped++
				continue
			}
			resp.Applied++
		case "reject":
			req := s.findDynLocked(a.JobID)
			if req == nil {
				resp.Skipped++
				continue
			}
			rm.RejectDyn(req, a.Reason)
			resp.Applied++
		default:
			resp.Skipped++
		}
	}
	return resp
}

func (s *Server) findDynLocked(jobID int) *job.DynRequest {
	for _, r := range s.dyn {
		if int(r.Job.ID) == jobID {
			return r
		}
	}
	return nil
}
