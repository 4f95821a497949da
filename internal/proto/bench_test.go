package proto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// benchState builds a moderately sized scheduler snapshot — the
// largest message class on the wire during live operation.
func benchState() SchedState {
	st := SchedState{NowMS: 123456, Serial: 42}
	for i := 0; i < 16; i++ {
		st.Nodes = append(st.Nodes, NodeStatus{
			Name: "node07", Cores: 8, Used: 4, State: "up",
		})
	}
	for i := 0; i < 32; i++ {
		st.Queued = append(st.Queued, SchedJob{
			ID: i, Name: "L.12", User: "user08", Group: "grp_user08",
			State: "queued", Cores: 15, WallSecs: 366, SubmitMS: int64(i) * 30000,
		})
	}
	for i := 0; i < 8; i++ {
		st.Dyn = append(st.Dyn, SchedDynReq{JobID: i, Cores: 4, Seq: i})
	}
	return st
}

// BenchmarkConnRoundTrip measures one request/echo cycle over an
// in-memory pipe: Send encode + frame write, Recv frame read + decode,
// both directions (BENCH_campaign.json: proto roundtrip).
func BenchmarkConnRoundTrip(b *testing.B) {
	a, p := net.Pipe()
	ca, cb := NewConn(a), NewConn(p)
	defer ca.Close()
	defer cb.Close()
	go func() {
		for {
			env, err := cb.Recv()
			if err != nil {
				return
			}
			if err := cb.Send(env.Type, env.Payload); err != nil {
				return
			}
		}
	}()
	st := benchState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := ca.Request(TSchedState, st)
		if err != nil {
			b.Fatal(err)
		}
		if env.Type != TSchedState {
			b.Fatalf("echo type %s", env.Type)
		}
	}
}

// discardConn is a net.Conn that swallows writes, isolating the Send
// encode path from socket costs.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestSendAllocsRegression guards the pooled single-pass Send path:
// the seed codec spent 5 allocations per call (payload marshal,
// envelope marshal, growth copies); the pooled path must stay at ≤ 2
// amortized. A regression here silently reintroduces encode churn on
// every wire message of the live daemons.
func TestSendAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	a, p := net.Pipe()
	defer a.Close()
	defer p.Close()
	c := NewConn(discardConn{a})
	st := benchState()
	c.Send(TSchedState, st) // warm the pools
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(TSchedState, st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Send allocates %.1f times per call, want <= 2 (seed codec: 5)", allocs)
	}
}

// TestRecvAllocsRegression guards the pooled Recv frame buffer: only
// the envelope, its payload copy, and decode internals may allocate —
// the frame read buffer itself must come from the pool.
func TestRecvAllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	st := benchState()
	var frame bytes.Buffer
	fc := NewConn(discardRecorder{Buffer: &frame})
	if err := fc.Send(TSchedState, st); err != nil {
		t.Fatal(err)
	}
	r := &replayConn{data: frame.Bytes()}
	c := NewConn(r)
	if _, err := c.Recv(); err != nil { // warm the pool
		t.Fatal(err)
	}
	r.off = 0
	allocs := testing.AllocsPerRun(200, func() {
		r.off = 0
		env, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != TSchedState {
			t.Fatalf("type %s", env.Type)
		}
	})
	// envelope + payload copy + unmarshal scratch sit at 10 today; the
	// seed path allocated a fresh frame buffer for every message on
	// top of that. The bound only needs to catch the buffer coming
	// back (or decode-path churn), not pin the stdlib's exact count.
	if allocs > 10 {
		t.Errorf("Recv allocates %.1f times per call, want <= 10", allocs)
	}
}

// discardRecorder captures Send frames for replay.
type discardRecorder struct {
	net.Conn
	Buffer *bytes.Buffer
}

func (d discardRecorder) Write(p []byte) (int, error) { return d.Buffer.Write(p) }

// replayConn replays one captured frame per rewind.
type replayConn struct {
	net.Conn
	data []byte
	off  int
}

func (r *replayConn) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *replayConn) SetReadDeadline(time.Time) error { return nil }

// BenchmarkConnSend measures the encode + frame path alone.
func BenchmarkConnSend(b *testing.B) {
	a, p := net.Pipe()
	defer a.Close()
	defer p.Close()
	c := NewConn(discardConn{a})
	st := benchState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(TSchedState, st); err != nil {
			b.Fatal(err)
		}
	}
}

// v2BenchPair returns an in-memory pair pinned to the v2 framing
// (version forced directly; the handshake is covered by the
// integration tests).
func v2BenchPair() (*Conn, *Conn, func()) {
	a, p := net.Pipe()
	ca, cb := NewConn(a), NewConn(p)
	ca.ver.Store(V2)
	cb.ver.Store(V2)
	return ca, cb, func() { ca.Close(); cb.Close() }
}

// BenchmarkConnRoundTripV2 measures one request/echo cycle of a hot
// mom-link struct over the binary codec — the per-message cost the
// 10k-mom soak multiplies out (BENCH_proto.json: v2 roundtrip).
func BenchmarkConnRoundTripV2(b *testing.B) {
	ca, cb, stop := v2BenchPair()
	defer stop()
	go func() {
		var req JobDoneReq
		for {
			env, err := cb.Recv()
			if err != nil {
				return
			}
			req = JobDoneReq{}
			if err := env.Decode(&req); err != nil {
				return
			}
			if err := cb.Send(TJobDone, &req); err != nil {
				return
			}
		}
	}()
	req := JobDoneReq{JobID: 7}
	var resp JobDoneReq
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ca.Send(TJobDone, &req); err != nil {
			b.Fatal(err)
		}
		env, err := ca.Recv()
		if err != nil {
			b.Fatal(err)
		}
		resp = JobDoneReq{}
		if err := env.Decode(&resp); err != nil {
			b.Fatal(err)
		}
		if resp.JobID != 7 {
			b.Fatalf("echo = %+v", resp)
		}
	}
}

// BenchmarkConnSendV2 measures the binary encode + frame path alone.
func BenchmarkConnSendV2(b *testing.B) {
	a, p := net.Pipe()
	defer a.Close()
	defer p.Close()
	c := NewConn(discardConn{a})
	c.ver.Store(V2)
	req := HeartbeatReq{Node: "mom-00042", Seq: 1, SentMS: 1723}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seq++
		if err := c.Send(THeartbeat, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSendAllocsV2Regression: the binary encode of a hot struct must
// be allocation-free in steady state — pooled frame buffer, varint
// fields, no interface-boxing copies when the caller passes a pointer.
func TestSendAllocsV2Regression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	a, p := net.Pipe()
	defer a.Close()
	defer p.Close()
	c := NewConn(discardConn{a})
	c.ver.Store(V2)
	req := HeartbeatReq{Node: "mom-00042", Seq: 9, SentMS: 1723}
	if err := c.Send(THeartbeat, &req); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(THeartbeat, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("v2 Send allocates %.1f times per call, want 0", allocs)
	}
}

// TestRoundTripV2AllocsRegression pins the acceptance criterion: a
// full v2 round trip (Send + echo Recv/Decode/Send on the peer + Recv
// + Decode locally, across both goroutines) stays at ≤ 4 allocations —
// the envelope and binary-payload copy on each side — versus 22 for
// the same cycle on the v1 JSON codec.
func TestRoundTripV2AllocsRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	ca, cb, stop := v2BenchPair()
	defer stop()
	go func() {
		var req JobDoneReq
		for {
			env, err := cb.Recv()
			if err != nil {
				return
			}
			req = JobDoneReq{}
			if err := env.Decode(&req); err != nil {
				return
			}
			if err := cb.Send(TJobDone, &req); err != nil {
				return
			}
		}
	}()
	req := JobDoneReq{JobID: 7}
	var resp JobDoneReq
	roundTrip := func() {
		if err := ca.Send(TJobDone, &req); err != nil {
			t.Fatal(err)
		}
		env, err := ca.Recv()
		if err != nil {
			t.Fatal(err)
		}
		resp = JobDoneReq{}
		if err := env.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.JobID != 7 {
			t.Fatalf("echo = %+v", resp)
		}
	}
	roundTrip() // warm the pools
	allocs := testing.AllocsPerRun(200, roundTrip)
	if allocs > 4 {
		t.Errorf("v2 round trip allocates %.1f times, want <= 4 (v1: ~22)", allocs)
	}
}

// deepState builds the deep-queue snapshot: n queued whole-node jobs
// from 16 users against a full 16-node machine.
func deepState(n int) SchedState {
	st := SchedState{NowMS: 987654321, Serial: 77}
	for i := 0; i < 16; i++ {
		st.Nodes = append(st.Nodes, NodeStatus{Name: fmt.Sprintf("mom%02d", i), Cores: 8, Used: 8, State: "up"})
		st.Active = append(st.Active, SchedJob{
			ID: i + 1, Name: "deep", User: fmt.Sprintf("u%d", i%16), State: "running",
			Cores: 8, WallSecs: 3600, SubmitMS: 1000, StartMS: 2000,
		})
	}
	for i := 0; i < n; i++ {
		st.Queued = append(st.Queued, SchedJob{
			ID: 17 + i, Name: "deep", User: fmt.Sprintf("u%d", i*7%16), State: "queued",
			Cores: 8, WallSecs: int64(600 + i*37%86400), SubmitMS: int64(5000 + i),
		})
	}
	return st
}

// BenchmarkSchedStateCodec50k measures one encode plus one decode of a
// 50k-job scheduler snapshot (about 9 MB of JSON): "direct" is the
// codec Send and Decode use, "stdlib" the encoding/json round trip it
// replaces, as the comparator.
func BenchmarkSchedStateCodec50k(b *testing.B) {
	st := deepState(50_000)
	want, err := json.Marshal(st)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if ok, err := appendSchedState(&buf, &st); !ok || err != nil {
				b.Fatal(ok, err)
			}
			var got SchedState
			if !decodeSchedState(buf.Bytes(), &got) || len(got.Queued) != len(st.Queued) {
				b.Fatal("direct decoder refused its own encoding")
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc, err := json.Marshal(&st)
			if err != nil {
				b.Fatal(err)
			}
			var got SchedState
			if err := json.Unmarshal(enc, &got); err != nil || len(got.Queued) != len(st.Queued) {
				b.Fatal(err)
			}
		}
	})
}
