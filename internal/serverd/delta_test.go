package serverd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/proto"
	"repro/internal/testutil/leak"
)

// deltaClient is a scheduler's view of the queue, kept from delta
// pulls the way mauid keeps it: drop Removed, append Queued.
type deltaClient struct {
	queue  []proto.SchedJob
	since  uint64
	deltas int // pulls answered with a delta
}

// pull brings the client up to date and returns the reply.
func (c *deltaClient) pull(t testing.TB, srv *Server) proto.SchedState {
	t.Helper()
	st := srv.snapshot(&proto.SchedPull{Since: c.since, Incarnation: srv.incarnation})
	if st.Incarnation != srv.incarnation {
		t.Fatalf("reply incarnation %d, server %d", st.Incarnation, srv.incarnation)
	}
	if st.Since == 0 {
		c.queue = append([]proto.SchedJob(nil), st.Queued...)
	} else {
		if st.Since != c.since {
			t.Fatalf("delta against serial %d, client holds %d", st.Since, c.since)
		}
		c.deltas++
		for _, id := range st.Removed {
			i := indexJob(c.queue, id)
			if i < 0 {
				t.Fatalf("delta since %d removes job %d, which the client does not hold", st.Since, id)
			}
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
		}
		c.queue = append(c.queue, st.Queued...)
	}
	c.since = st.Serial
	return st
}

func indexJob(q []proto.SchedJob, id int) int {
	for i := range q {
		if q[i].ID == id {
			return i
		}
	}
	return -1
}

// check pulls a delta and a full snapshot at the same serial and
// asserts the client's queue and the rest of the state equal it.
func (c *deltaClient) check(t testing.TB, srv *Server, step string) {
	t.Helper()
	st := c.pull(t, srv)
	full := srv.snapshot(nil)
	if full.Serial != st.Serial {
		t.Fatalf("%s: state moved between pulls (%d → %d)", step, st.Serial, full.Serial)
	}
	if len(c.queue) != len(full.Queued) || (len(c.queue) > 0 && !reflect.DeepEqual(c.queue, full.Queued)) {
		t.Fatalf("%s: delta-applied queue differs from the full pull at serial %d:\n delta %+v\n full  %+v",
			step, st.Serial, c.queue, full.Queued)
	}
	if !reflect.DeepEqual(st.Nodes, full.Nodes) || !reflect.DeepEqual(st.Active, full.Active) || !reflect.DeepEqual(st.Dyn, full.Dyn) {
		t.Fatalf("%s: nodes/active/dyn differ between the delta and the full pull", step)
	}
}

// deltaRig is an unstarted server with three 4-core nodes whose mom
// links are in-memory pipes. A link can be broken (every RunJob to it
// fails, so the dispatch rolls back) and healed.
type deltaRig struct {
	srv   *Server
	nodes []*nodeInfo
	live  []*proto.Conn // the healthy link of each node
	pipes []net.Conn
}

func newDeltaRig(t testing.TB) *deltaRig {
	srv := New(Options{})
	srv.start = time.Now() // anchor the virtual clock; the daemon is never Started
	r := &deltaRig{srv: srv}
	for i := 0; i < 3; i++ {
		local, remote := net.Pipe()
		r.pipes = append(r.pipes, local, remote)
		go func() { // the mom: drain everything the server sends
			c := proto.NewConn(remote)
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		}()
		n := srv.cl.AddNode(fmt.Sprintf("dn%d", i), 4)
		ni := &nodeInfo{node: n, addr: "pipe", conn: proto.NewConn(local)}
		srv.nodes[n.Name] = ni
		srv.nodeByID[n.ID] = ni
		r.nodes = append(r.nodes, ni)
		r.live = append(r.live, ni.conn)
	}
	t.Cleanup(func() {
		srv.Close()
		for _, p := range r.pipes {
			p.Close()
		}
	})
	return r
}

// step applies one command chosen by op, with arg picking its job,
// size or node. It returns a label for failure messages.
func (r *deltaRig) step(op, arg byte) string {
	s := r.srv
	id := 1 + int(arg)%(r.lastID()+1) // sometimes one past the last id
	switch op % 10 {
	case 0, 1: // submit, now and then one that never fits
		_, _ = s.QSub(proto.JobSpec{Name: "d", User: fmt.Sprintf("u%d", arg%3), Cores: 1 + int(arg)%7, WallSecs: 60})
		return "qsub"
	case 2:
		s.QDel(id)
		return fmt.Sprintf("qdel %d", id)
	case 3: // a commit naming a few jobs: fresh, stale and unknown starts
		s.applyCommit(proto.SchedCommit{Actions: []proto.SchedAction{
			{Kind: "start", JobID: id}, {Kind: "start", JobID: id + 1}, {Kind: "start", JobID: id},
		}})
		return fmt.Sprintf("commit start %d,%d", id, id+1)
	case 4:
		s.mu.Lock()
		if ji, ok := s.jobs[id]; ok && ji.j.Active() {
			_ = (*serverRM)(s).Preempt(ji.j)
		}
		s.mu.Unlock()
		return fmt.Sprintf("preempt %d", id)
	case 5:
		s.dynGet(nil, proto.DynGetReq{JobID: id, Cores: 1 + int(arg)%3})
		return fmt.Sprintf("dynget %d", id)
	case 6:
		kind := "grant"
		if arg%2 == 1 {
			kind = "reject"
		}
		s.applyCommit(proto.SchedCommit{Actions: []proto.SchedAction{{Kind: kind, JobID: id, Reason: "r"}}})
		return fmt.Sprintf("commit %s %d", kind, id)
	case 7:
		s.jobDone(nil, proto.JobDoneReq{JobID: id})
		return fmt.Sprintf("jobdone %d", id)
	case 8: // break or heal a mom link
		i := int(arg) % len(r.nodes)
		s.mu.Lock()
		if r.nodes[i].conn == r.live[i] {
			dead, peer := net.Pipe()
			peer.Close()
			r.pipes = append(r.pipes, dead)
			r.nodes[i].conn = proto.NewConn(dead)
		} else {
			r.nodes[i].conn = r.live[i]
		}
		s.mu.Unlock()
		return fmt.Sprintf("toggle link %d", i)
	default:
		return "idle"
	}
}

// lastID is the id of the newest job.
func (r *deltaRig) lastID() int {
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	return r.srv.nextID - 1
}

// runDeltaSequence drives ops (pairs of op and argument bytes) through
// a rig. One client pulls after every step; a second pulls only when
// the argument byte says so, so its deltas span many commands and now
// and then fall behind the removal log.
func runDeltaSequence(t testing.TB, ops []byte) (eager, lagging *deltaClient) {
	r := newDeltaRig(t)
	eager, lagging = &deltaClient{}, &deltaClient{}
	for i := 0; i+1 < len(ops); i += 2 {
		what := r.step(ops[i], ops[i+1])
		eager.check(t, r.srv, fmt.Sprintf("step %d (%s)", i/2, what))
		if ops[i+1]%7 == 0 {
			lagging.check(t, r.srv, fmt.Sprintf("step %d (%s), lagging client", i/2, what))
		}
	}
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	if len(r.srv.exits) > len(r.srv.queued)+exitSlack {
		t.Fatalf("removal log holds %d entries for a queue of %d", len(r.srv.exits), len(r.srv.queued))
	}
	return eager, lagging
}

// TestSchedDeltaMatchesFullPull is the delta-vs-full differential:
// random submits, deletes of queued and running jobs, commits with
// stale starts, dispatch rollbacks, preemption and requeue, and dyn
// get/grant/reject; after every command the queue kept from deltas
// equals a full pull at the same serial.
func TestSchedDeltaMatchesFullPull(t *testing.T) {
	leak.Check(t)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*1500)
		rng.Read(ops)
		eager, lagging := runDeltaSequence(t, ops)
		if eager.deltas < 1000 || lagging.deltas == 0 {
			t.Fatalf("seed %d: only %d/%d pulls were deltas", seed, eager.deltas, lagging.deltas)
		}
	}
}

func FuzzSchedDelta(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 5, 1, 6, 0, 2, 1})
	f.Add([]byte{0, 4, 0, 4, 8, 0, 3, 1, 8, 0, 3, 1, 4, 1, 7, 2})
	f.Add(bytes.Repeat([]byte{0, 1, 3, 0, 2, 0}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 800 {
			ops = ops[:800]
		}
		runDeltaSequence(t, ops)
	})
}

// legacyState is SchedState as it was before delta pulls.
type legacyState struct {
	NowMS  int64               `json:"now_ms"`
	Nodes  []proto.NodeStatus  `json:"nodes"`
	Queued []proto.SchedJob    `json:"queued"`
	Active []proto.SchedJob    `json:"active"`
	Dyn    []proto.SchedDynReq `json:"dyn"`
	Serial uint64              `json:"serial"`
}

// TestSchedPullWithoutPayloadIsLegacy: a pull with no payload — an
// older scheduler, or the benchmark's own pull — is answered with
// exactly the bytes of the snapshot before delta pulls existed.
func TestSchedPullWithoutPayloadIsLegacy(t *testing.T) {
	leak.Check(t)
	srv := liveCluster(t, 1, 8)
	for i := 0; i < 3; i++ {
		if _, err := srv.QSub(proto.JobSpec{Name: "q", User: "u", Cores: 99, WallSecs: 60}); err != nil {
			t.Fatal(err)
		}
	}
	srv.QDel(1)
	c, err := proto.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	env, err := c.Request(proto.TSchedPull, nil)
	if err != nil {
		t.Fatal(err)
	}
	var old legacyState
	if err := json.Unmarshal(env.Payload, &old); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(old)
	if !bytes.Equal(env.Payload, want) || len(old.Queued) != 2 {
		t.Fatalf("bare pull answered\n %s\nwant the legacy form\n %s", env.Payload, want)
	}
}

// TestSchedPullFallsBackToFull: the server answers with the whole queue
// when it cannot diff — another incarnation, a serial older than the
// removal log or ahead of the server — and with a delta otherwise.
func TestSchedPullFallsBackToFull(t *testing.T) {
	leak.Check(t)
	r := newDeltaRig(t)
	srv := r.srv
	for i := 0; i < 4; i++ {
		r.step(0, 0) // four one-core submits
	}
	mid := srv.snapshot(nil).Serial
	srv.QDel(2)
	cur := srv.snapshot(nil).Serial
	inc := srv.incarnation
	for _, tc := range []struct {
		name      string
		pull      proto.SchedPull
		delta     bool
		removed   []int
		queuedLen int
	}{
		{"delta", proto.SchedPull{Since: mid, Incarnation: inc}, true, []int{2}, 0},
		{"current", proto.SchedPull{Since: cur, Incarnation: inc}, true, nil, 0},
		{"zero since", proto.SchedPull{Incarnation: inc}, false, nil, 3},
		{"other incarnation", proto.SchedPull{Since: mid, Incarnation: inc + 1}, false, nil, 3},
		{"ahead of serial", proto.SchedPull{Since: cur + 1, Incarnation: inc}, false, nil, 3},
	} {
		st := srv.snapshot(&tc.pull)
		if (st.Since != 0) != tc.delta || !reflect.DeepEqual(st.Removed, tc.removed) || len(st.Queued) != tc.queuedLen {
			t.Errorf("%s: since=%d removed=%v queued=%d", tc.name, st.Since, st.Removed, len(st.Queued))
		}
		if st.Incarnation != inc {
			t.Errorf("%s: reply incarnation %d, want %d", tc.name, st.Incarnation, inc)
		}
	}
	// Removals beyond the queue length plus the slack trim the log:
	// a pull since before the trim is answered in full.
	for i := 0; i < exitSlack+8; i++ {
		id, _ := srv.QSub(proto.JobSpec{Name: "t", User: "u", Cores: 99, WallSecs: 60})
		srv.QDel(id)
	}
	srv.mu.Lock()
	floor, logged := srv.exitFloor, len(srv.exits)
	srv.mu.Unlock()
	if floor <= cur || logged > 3+exitSlack {
		t.Fatalf("log not trimmed: floor %d (serial at start %d), %d entries", floor, cur, logged)
	}
	if st := srv.snapshot(&proto.SchedPull{Since: cur, Incarnation: inc}); st.Since != 0 || len(st.Queued) != 3 {
		t.Errorf("pull since a trimmed serial: since=%d queued=%d, want a full reply", st.Since, len(st.Queued))
	}
	if st := srv.snapshot(&proto.SchedPull{Since: floor, Incarnation: inc}); st.Since != floor {
		t.Errorf("pull since the log floor: since=%d, want a delta", st.Since)
	}
	if New(Options{}).incarnation == inc {
		t.Error("two servers share an incarnation")
	}
	if j := srv.snapshot(nil).Queued; len(j) != 3 || j[0].State != job.Queued.String() {
		t.Errorf("queue after trimming = %+v", j)
	}
}
