package proto_test

import (
	"encoding/json"
	"io"
	"net"
	"reflect"
	"testing"

	"repro/internal/proto"
)

// FuzzConnRoundTrip drives a full Send→Recv→Decode cycle over an
// in-process pipe with arbitrary message types and payloads: whatever
// JSON can carry must arrive bit-identically on the other side.
func FuzzConnRoundTrip(f *testing.F) {
	f.Add("qsub", `{"name":"a"}`)
	f.Add("ok", "")
	f.Add("sched.commit", "payload with \x00, quotes \" and ünicode ☃")
	f.Fuzz(func(t *testing.T, typ, payload string) {
		a, b := net.Pipe()
		ca, cb := proto.NewConn(a), proto.NewConn(b)
		defer ca.Close()
		defer cb.Close()
		sendErr := make(chan error, 1)
		go func() { sendErr <- ca.Send(proto.MsgType(typ), payload) }()
		env, err := cb.Recv()
		if serr := <-sendErr; serr != nil {
			t.Fatalf("send: %v", serr)
		}
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		// The wire must preserve exactly what encoding/json preserves:
		// Marshal coerces invalid UTF-8 (in the type tag and in string
		// payloads) to U+FFFD before it hits the wire, so compare
		// against the local JSON round trip, not the raw input.
		if want := jsonRoundTrip(t, typ); string(env.Type) != want {
			t.Fatalf("type = %q, want %q", env.Type, want)
		}
		var got string
		if derr := env.Decode(&got); derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		if want := jsonRoundTrip(t, payload); got != want {
			t.Fatalf("payload = %q, want %q", got, want)
		}
	})
}

// jsonRoundTrip returns s as it survives one encoding/json cycle.
func jsonRoundTrip(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal %q: %v", s, err)
	}
	var out string
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal %q: %v", b, err)
	}
	return out
}

// FuzzConnMalformedFrame feeds raw attacker-controlled bytes to Recv:
// truncated length prefixes, oversized declared lengths and invalid
// JSON must all produce a clean error — never a panic, a hang, or a
// giant allocation driven by the declared frame length.
func FuzzConnMalformedFrame(f *testing.F) {
	f.Add([]byte{0x00, 0x00})                                         // truncated length prefix
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})                        // declared length over maxFrame
	f.Add(append([]byte{0x00, 0x00, 0x00, 0x03}, "xyz"...))           // invalid JSON payload
	f.Add([]byte{0x00, 0x00, 0x00, 0x10, '{', '"'})                   // declared length beyond the data
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, '{', '}'})                   // minimal valid envelope
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})                             // zero-length frame
	f.Add(append([]byte{0x00, 0x00, 0x00, 0x0d}, `{"type":"ok"}`...)) // payload-less envelope
	f.Add([]byte{0xF2, 'P', 'B', 0x02})                               // v2 magic fed to a v1 reader
	f.Fuzz(func(t *testing.T, frame []byte) {
		peer, ours := net.Pipe()
		go func() {
			_, _ = peer.Write(frame)
			_ = peer.Close() // EOF unblocks a Recv waiting for more bytes
		}()
		c := proto.NewConn(ours)
		defer c.Close()
		env, err := c.Recv()
		if err == nil && env == nil {
			t.Fatal("Recv returned neither an envelope nor an error")
		}
	})
}

// FuzzV2MalformedFrame is the v2 counterpart: after a real handshake,
// raw attacker bytes — zero-length frames, truncated tag tables,
// overlong length varints, bogus payload kinds — must produce a clean
// Recv error, never a panic, a hang, or a length-driven allocation.
func FuzzV2MalformedFrame(f *testing.F) {
	f.Add([]byte{})                                   // immediate EOF
	f.Add([]byte{0x00})                               // zero-length frame
	f.Add([]byte{0x01, 0x0a})                         // tag with no payload kind
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})       // unterminated length varint
	f.Add([]byte{0x81, 0x80, 0x80, 0x09})             // declared length over maxFrame
	f.Add([]byte{0x04, 0x00, 0x0a, 'a', 'b'})         // truncated literal tag table entry
	f.Add([]byte{0x02, 26, 0x00})                     // unknown tag id
	f.Add([]byte{0x03, 0x0a, 0x02, 0x01})             // short binary payload
	f.Add([]byte{0x05, 0x07, 0x02, 0x02, 0x0e, 0x00}) // valid binary jobdone
	f.Fuzz(func(t *testing.T, frame []byte) {
		peer, ours := net.Pipe()
		go func() {
			hello := []byte{0xF2, 'P', 'B', 0x02}
			if _, err := peer.Write(hello); err != nil {
				return
			}
			var reply [4]byte
			if _, err := io.ReadFull(peer, reply[:]); err != nil {
				return
			}
			_, _ = peer.Write(frame)
			_ = peer.Close()
		}()
		c := proto.NewConn(ours)
		defer c.Close()
		if err := c.AcceptHandshake(proto.ModeAuto); err != nil {
			t.Fatalf("handshake: %v", err)
		}
		if c.Version() != 2 {
			t.Fatalf("negotiated %d, want 2", c.Version())
		}
		env, err := c.Recv()
		if err == nil && env == nil {
			t.Fatal("Recv returned neither an envelope nor an error")
		}
	})
}

// FuzzCodecDifferential proves the v2 codec's equivalence claim: every
// hot payload struct must decode to the identical value whether it
// travelled through the v1 JSON framing or the v2 binary framing —
// including invalid-UTF-8 coercion, negative and 64-bit ints, and
// empty-slice/omitempty parity. The scheduler snapshot rides as JSON
// in both versions through its direct codec and must agree as well.
func FuzzCodecDifferential(f *testing.F) {
	f.Add("mom-001", int64(7), int64(1723), 42, "", 8, 2, 4, int64(30), true, "busy", "127.0.0.1:15002", 16, uint8(2), uint8(3))
	f.Add("\xff\xfe", int64(-1), int64(0), -9, "exit 1 \xed\xa0\x80", 0, 0, 0, int64(0), false, "", "", -1, uint8(0), uint8(0))
	// 1<<30, not 1<<40: the jobID argument is a plain int and the
	// GOARCH=386 CI step vets this file on a 32-bit int.
	f.Add("n", int64(1)<<62, int64(-5), 1<<30, "é", -3, 1, 1, int64(-60), true, "r \x00 s", "addr", 0, uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, node string, seq, sent int64, jobID int, errStr string,
		cores, nnodes, ppn int, timeoutSecs int64, granted bool, reason, addr string,
		hCores int, nHosts, nJobs uint8) {
		hosts := make([]proto.HostSlice, int(nHosts)%4)
		for i := range hosts {
			hosts[i] = proto.HostSlice{Node: node, Addr: addr, Cores: hCores + i}
		}
		jobs := make([]int, int(nJobs)%5)
		for i := range jobs {
			jobs[i] = jobID + i
		}
		payloads := []struct {
			typ proto.MsgType
			val any
		}{
			{proto.THeartbeat, &proto.HeartbeatReq{Node: node, Seq: seq, SentMS: sent}},
			{proto.TJobDone, &proto.JobDoneReq{JobID: jobID, Error: errStr}},
			{proto.TDynGet, &proto.DynGetReq{JobID: jobID, Cores: cores, Nodes: nnodes, PPN: ppn, TimeoutSecs: timeoutSecs}},
			{proto.TDynGetResp, &proto.DynGetResp{JobID: jobID, Granted: granted, Reason: reason, Hosts: hosts}},
			{proto.TRegister, &proto.RegisterReq{Node: node, Addr: addr, Cores: cores, Jobs: jobs}},
			{proto.TSchedState, schedStateOf(node, reason, addr, seq, sent, jobID, cores, nnodes, ppn, timeoutSecs, granted, int(nHosts), int(nJobs))},
		}
		for _, p := range payloads {
			v1 := tripOnce(t, proto.ModeV1, p.typ, p.val)
			v2 := tripOnce(t, proto.ModeV2, p.typ, p.val)
			if !reflect.DeepEqual(v1, v2) {
				t.Fatalf("differential mismatch for %s:\n v1: %#v\n v2: %#v", p.typ, v1, v2)
			}
		}
	})
}

// schedStateOf builds a scheduler snapshot from the differential
// fuzzer's fields; nNodes and nJobs also pick nil versus empty lists.
func schedStateOf(node, user, state string, now, serial int64, jobID, cores, nnodes, ppn int,
	deadline int64, flag bool, nNodes, nJobs int) *proto.SchedState {
	st := &proto.SchedState{NowMS: now, Serial: uint64(serial)}
	if nNodes%4 > 0 {
		st.Nodes = make([]proto.NodeStatus, nNodes%4-1)
		for i := range st.Nodes {
			st.Nodes[i] = proto.NodeStatus{Name: node, Cores: cores, Used: i, State: state}
		}
	}
	if nJobs%5 > 0 {
		st.Queued = make([]proto.SchedJob, nJobs%5-1)
		for i := range st.Queued {
			st.Queued[i] = proto.SchedJob{
				ID: jobID + i, Name: node, User: user, Group: state, State: "queued", Cores: cores,
				DynCores: nnodes, WallSecs: deadline, SubmitMS: now, StartMS: -now, SysPrio: serial, Evolving: flag,
			}
		}
		st.Active = []proto.SchedJob{{ID: jobID, Name: user, State: "running", Backfilled: !flag}}
		st.Dyn = []proto.SchedDynReq{
			{JobID: jobID, Seq: 1},
			{JobID: jobID, Cores: cores, Nodes: nnodes, PPN: ppn, Seq: ppn, DeadlineMS: deadline},
		}
	}
	return st
}

// tripOnce round-trips payload through a fresh pair at the given mode
// and returns the decoded struct (same concrete type as payload).
func tripOnce(t *testing.T, m proto.Mode, typ proto.MsgType, payload any) any {
	t.Helper()
	ca, cb := handshakePair(t, m)
	defer ca.Close()
	defer cb.Close()
	sendErr := make(chan error, 1)
	go func() { sendErr <- ca.Send(typ, payload) }()
	env, err := cb.Recv()
	if serr := <-sendErr; serr != nil {
		t.Fatalf("%s send %s: %v", m, typ, serr)
	}
	if err != nil {
		t.Fatalf("%s recv %s: %v", m, typ, err)
	}
	if env.Type != typ {
		t.Fatalf("%s type = %q, want %q", m, env.Type, typ)
	}
	dst := reflect.New(reflect.TypeOf(payload).Elem()).Interface()
	if err := env.Decode(dst); err != nil {
		t.Fatalf("%s decode %s: %v", m, typ, err)
	}
	return dst
}
