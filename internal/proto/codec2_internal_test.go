package proto

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
)

// v2Pair returns an in-memory pair pinned to the v2 framing. The
// version is forced directly — the handshake itself is covered by the
// integration tests — so malformed-frame bytes can be injected
// without a negotiating peer.
func v2Pair(t testing.TB) (*Conn, net.Conn) {
	t.Helper()
	peer, ours := net.Pipe()
	c := NewConn(ours)
	c.ver.Store(V2)
	t.Cleanup(func() {
		_ = c.Close()
		_ = peer.Close()
	})
	return c, peer
}

// TestV2MalformedFrames: every malformed v2 byte sequence must surface
// as a clean Recv error — never a panic, a hang, or an attacker-sized
// allocation.
func TestV2MalformedFrames(t *testing.T) {
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"zero-length frame", []byte{0x00}},
		{"length over maxFrame", []byte{0x81, 0x80, 0x80, 0x09}}, // uvarint 18<<20
		{"unterminated length varint", []byte{0xff, 0xff, 0xff, 0xff, 0xff}},
		{"tag only, no kind", []byte{0x01, 0x0a}},
		{"unknown tag id", []byte{0x02, 26, 0x00}},
		{"truncated literal tag", []byte{0x04, 0x00, 0x0a, 'a', 'b'}},
		{"unknown payload kind", []byte{0x03, 0x0a, 0x09, 0x00}},
		{"empty JSON payload", []byte{0x02, 0x0a, 0x01}},
		{"short binary payload", []byte{0x03, 0x0a, 0x02, 0x01}},
		{"trailing bytes after empty payload", []byte{0x03, 0x0a, 0x00, 0x00}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, peer := v2Pair(t)
			go func() {
				_, _ = peer.Write(tc.bytes)
				_ = peer.Close()
			}()
			if env, err := c.Recv(); err == nil {
				t.Fatalf("Recv(%x) = %+v, want error", tc.bytes, env)
			}
		})
	}
}

// TestV2TruncatedBinaryPayload: a binary payload cut mid-field must
// error out of Decode, not fabricate zero values.
func TestV2TruncatedBinaryPayload(t *testing.T) {
	c, peer := v2Pair(t)
	// heartbeat codec: node="ab" but only one byte of it present.
	body := []byte{byte(tagID[THeartbeat]), payloadBin, codecHeartbeat, 0x02, 'a'}
	frame := append([]byte{byte(len(body))}, body...)
	go func() {
		_, _ = peer.Write(frame)
		_ = peer.Close()
	}()
	env, err := c.Recv()
	if err != nil {
		t.Fatalf("framing should accept the bytes: %v", err)
	}
	var hb HeartbeatReq
	if err := env.Decode(&hb); err == nil || !strings.Contains(err.Error(), "node") {
		t.Fatalf("Decode of truncated heartbeat = %+v, %v; want field error", hb, err)
	}
}

// TestV2TrailingBinaryBytes: extra bytes after the last field are a
// framing violation, not silently ignored padding.
func TestV2TrailingBinaryBytes(t *testing.T) {
	c, peer := v2Pair(t)
	body := []byte{byte(tagID[TJobDone]), payloadBin, codecJobDone,
		0x0e /* job_id=7 */, 0x00 /* error="" */, 0xAA /* trailing */}
	frame := append([]byte{byte(len(body))}, body...)
	go func() {
		_, _ = peer.Write(frame)
		_ = peer.Close()
	}()
	env, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var jd JobDoneReq
	if err := env.Decode(&jd); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Decode with trailing bytes = %+v, %v; want trailing-bytes error", jd, err)
	}
}

func TestCoerceUTF8MatchesJSON(t *testing.T) {
	cases := []string{
		"", "plain ascii", "ünicode ☃", "\xff", "a\xffb", "\xff\xfe\xfd",
		"trunc \xe2\x82", "\xed\xa0\x80 surrogate", "mixed\x00\xf0\x9f\x9a\x80ok",
	}
	for _, s := range cases {
		if got, want := coerceUTF8(s), jsonCoerce(t, s); got != want {
			t.Errorf("coerceUTF8(%q) = %q, want %q (encoding/json)", s, got, want)
		}
	}
}

func jsonCoerce(t *testing.T, s string) string {
	t.Helper()
	type w struct{ S string }
	b, err := json.Marshal(w{S: s})
	if err != nil {
		t.Fatal(err)
	}
	var out w
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out.S
}

// TestRecvV2BackToBackFrames: two frames received back to back stay
// independent whether the buffer is pooled (payload copied out, buffer
// reused for the next frame) or too large to pool (the envelope takes
// the buffer over instead of copying the payload a second time).
func TestRecvV2BackToBackFrames(t *testing.T) {
	for _, size := range []int{pooledBufLimit / 4, 2 * pooledBufLimit} {
		ca, peer := v2Pair(t)
		cb := NewConn(peer)
		cb.ver.Store(V2)
		first, second := strings.Repeat("a", size), strings.Repeat("b", size)
		sendErr := make(chan error, 1)
		go func() {
			err := cb.Send(TQSub, first)
			if err == nil {
				err = cb.Send(TQSub, second)
			}
			sendErr <- err
		}()
		e1, err := ca.Recv()
		if err != nil {
			t.Fatal(err)
		}
		e2, err := ca.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-sendErr; err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			env  *Envelope
			want string
		}{{e1, first}, {e2, second}} {
			var got string
			if err := c.env.Decode(&got); err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("%d-byte payload came back as %d bytes starting %q", len(c.want), len(got), got[:8])
			}
		}
	}
}

// TestParseV2Ownership: a pooled buffer is copied out of (the pool
// reuses it for the next frame); an owned one is taken over as is.
func TestParseV2Ownership(t *testing.T) {
	frame := func() []byte {
		return append([]byte{tagID[TQSub], payloadJSON}, `"payload"`...)
	}
	buf := frame()
	env, err := parseV2(buf, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'x'
	}
	if string(env.Payload) != `"payload"` {
		t.Fatalf("pooled frame payload changed with its buffer: %q", env.Payload)
	}
	buf = frame()
	if env, err = parseV2(buf, true); err != nil {
		t.Fatal(err)
	}
	if &env.Payload[0] != &buf[2] {
		t.Fatal("owned frame payload was copied")
	}
}
