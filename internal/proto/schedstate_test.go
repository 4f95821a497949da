package proto

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// codecStates covers the encoder's corners: nil versus empty slices,
// zero versus non-zero omitempty fields, strings that need escaping or
// UTF-8 coercion, and integers at their limits.
func codecStates() []SchedState {
	return []SchedState{
		{},
		{Nodes: []NodeStatus{}, Queued: []SchedJob{}, Active: []SchedJob{}, Dyn: []SchedDynReq{}},
		{
			NowMS: math.MaxInt64, Serial: math.MaxUint64,
			Nodes: []NodeStatus{{Name: "n0", Cores: 8, Used: 3, State: "up"}, {Name: "n1", Cores: -1, State: "down"}},
			Queued: []SchedJob{{
				ID: 1, Name: "a<b>&c", User: `q"uote\`, Group: "g\x00\x1f\x7f", State: "queued",
				Cores: 4, DynCores: -2, WallSecs: math.MinInt64, SubmitMS: -1, StartMS: 0, SysPrio: 1 << 40,
				Evolving: true,
			}},
			Active: []SchedJob{{ID: -7, Name: "\xff\xfe", User: "ünicode ☃", Group: "\u2028\u2029", State: "running", Backfilled: true}},
			Dyn: []SchedDynReq{
				{JobID: 1, Seq: 0},
				{JobID: 2, Cores: 4, Nodes: 1, PPN: 2, Seq: 9, DeadlineMS: -5},
				{JobID: 3, PPN: math.MinInt32, DeadlineMS: math.MaxInt64},
			},
		},
		{Serial: 9, Since: 5, Incarnation: math.MaxUint64, Removed: []int{3, -1, math.MinInt32, 0}},
		{Serial: 9, Since: 1, Removed: []int{}},
	}
}

func TestSchedStateEncodeMatchesJSON(t *testing.T) {
	for i, st := range codecStates() {
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendSchedStateJSON(nil, &st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("state %d:\n got %s\nwant %s", i, got, want)
		}
		for _, payload := range []any{st, &st} {
			var buf bytes.Buffer
			if ok, err := appendSchedState(&buf, payload); !ok || err != nil {
				t.Fatalf("appendSchedState(%T) = %v, %v", payload, ok, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("state %d via %T:\n got %s\nwant %s", i, payload, buf.Bytes(), want)
			}
		}
	}
	var nilState *SchedState
	for _, payload := range []any{nilState, "x", nil} {
		if ok, _ := appendSchedState(&bytes.Buffer{}, payload); ok {
			t.Errorf("appendSchedState(%#v) claimed the payload", payload)
		}
	}
}

// TestSchedStateDecodeMatchesJSON: canonical bytes take the direct path
// and every variant encoding/json also accepts (or rejects) decodes
// exactly as json.Unmarshal decodes it.
func TestSchedStateDecodeMatchesJSON(t *testing.T) {
	plain := SchedState{
		NowMS: 5, Serial: 9,
		Nodes:  []NodeStatus{{Name: "n0", Cores: 8, Used: 8, State: "up"}},
		Queued: []SchedJob{{ID: 1, Name: "j", User: "ü", State: "queued", Cores: 8, WallSecs: 60}},
		Dyn:    []SchedDynReq{{JobID: 1, Cores: 2, Seq: 1}},
	}
	canon, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	var st SchedState
	if !decodeSchedState(canon, &st) || !reflect.DeepEqual(st, plain) {
		t.Fatalf("canonical bytes: direct decode = %+v, want %+v", st, plain)
	}
	for i, s := range codecStates() {
		b, _ := json.Marshal(s)
		checkDecodeMatchesJSON(t, b)
		if (i < 2 || i == 3) && !decodeSchedState(b, new(SchedState)) {
			t.Errorf("state %d: direct decoder refused canonical %s", i, b)
		}
	}
	c := string(canon)
	variants := map[string]string{
		"whitespace":     strings.Replace(c, `"now_ms":5`, `"now_ms": 5`, 1),
		"trailing space": c + " ",
		"escape":         strings.Replace(c, `"j"`, `"\u006a"`, 1),
		"reordered keys": strings.Replace(strings.Replace(c, `"now_ms":5,`, ``, 1), `"serial":9}`, `"serial":9,"now_ms":5}`, 1),
		"unknown key":    strings.Replace(c, `"serial":9}`, `"serial":9,"x":1}`, 1),
		"case key":       strings.Replace(c, `"serial"`, `"Serial"`, 1),
		"float":          strings.Replace(c, `"now_ms":5`, `"now_ms":5.0`, 1),
		"exponent":       strings.Replace(c, `"now_ms":5`, `"now_ms":5e0`, 1),
		"minus zero":     strings.Replace(c, `"now_ms":5`, `"now_ms":-0`, 1),
		"leading zero":   strings.Replace(c, `"now_ms":5`, `"now_ms":05`, 1),
		"int64 overflow": strings.Replace(c, `"now_ms":5`, `"now_ms":9223372036854775808`, 1),
		"int64 min":      strings.Replace(c, `"now_ms":5`, `"now_ms":-9223372036854775808`, 1),
		"uint overflow":  strings.Replace(c, `"serial":9`, `"serial":18446744073709551616`, 1),
		"uint max":       strings.Replace(c, `"serial":9`, `"serial":18446744073709551615`, 1),
		"negative uint":  strings.Replace(c, `"serial":9`, `"serial":-9`, 1),
		"invalid utf8":   strings.Replace(c, `"j"`, "\"\xff\"", 1),
		"control byte":   strings.Replace(c, `"j"`, "\"\x01\"", 1),
		"explicit zero":  strings.Replace(c, `"cores":2`, `"cores":0`, 1),
		"null job":       strings.Replace(c, `"queued":[{`, `"queued":[null,{`, 1),
		"empty array":    strings.Replace(c, `"dyn":[{"job_id":1,"cores":2,"seq":1}]`, `"dyn":[]`, 1),
		"truncated":      c[:len(c)-1],
		"trailing comma": strings.Replace(c, `}],"active"`, `},],"active"`, 1),
		"bool as int":    strings.Replace(c, `"evolving":false`, `"evolving":0`, 1),
		"zero since":     strings.Replace(c, `"serial":9}`, `"serial":9,"since":0}`, 1),
		"zero inc":       strings.Replace(c, `"serial":9}`, `"serial":9,"incarnation":0}`, 1),
		"null removed":   strings.Replace(c, `"serial":9}`, `"serial":9,"removed":null}`, 1),
		"empty removed":  strings.Replace(c, `"serial":9}`, `"serial":9,"removed":[]}`, 1),
		"removed first":  strings.Replace(c, `"serial":9}`, `"serial":9,"removed":[1],"since":2}`, 1),
		"delta":          strings.Replace(c, `"serial":9}`, `"serial":9,"since":2,"incarnation":3,"removed":[1,-2]}`, 1),
	}
	for name, v := range variants {
		t.Run(name, func(t *testing.T) { checkDecodeMatchesJSON(t, []byte(v)) })
	}
}

// checkDecodeMatchesJSON asserts Envelope.Decode into a zero
// SchedState agrees with json.Unmarshal on b, value and error alike.
func checkDecodeMatchesJSON(t *testing.T, b []byte) {
	t.Helper()
	var got, want SchedState
	gerr := (&Envelope{Type: TSchedState, Payload: b}).Decode(&got)
	werr := json.Unmarshal(b, &want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("Decode(%s) err = %v, json.Unmarshal err = %v", b, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode(%s):\n got %+v\nwant %+v", b, got, want)
	}
}

// TestSchedStateDecodeMergesNonZeroDst: a destination that already
// holds data merges through json.Unmarshal — an element's field absent
// from the payload (an omitted zero) keeps its old value.
func TestSchedStateDecodeMergesNonZeroDst(t *testing.T) {
	b, err := json.Marshal(SchedState{Dyn: []SchedDynReq{{JobID: 1, Seq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	got := SchedState{Dyn: []SchedDynReq{{Cores: 5}}}
	want := SchedState{Dyn: []SchedDynReq{{Cores: 5}}}
	if err := (&Envelope{Type: TSchedState, Payload: b}).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.Dyn[0].Cores != 5 {
		t.Fatalf("merge decode = %+v, want %+v", got, want)
	}
}

// TestSchedStateDecodeLeavesDstOnFallback: a rejected input must not
// leave partial direct-decoder output behind for json.Unmarshal to
// merge into.
func TestSchedStateDecodeLeavesDstOnFallback(t *testing.T) {
	var st SchedState
	b := []byte(`{"now_ms":5,"nodes":[{"name":"n","cores":1,"used":0,"state":"up"}],"queued":[x]}`)
	if decodeSchedState(b, &st) {
		t.Fatal("direct decoder accepted malformed input")
	}
	if !st.isZero() {
		t.Fatalf("rejected decode wrote %+v", st)
	}
}

// TestSchedStateDecodeCapacityFromInput: a list's capacity is bounded
// by what the unread bytes could hold, never by a count on the wire.
func TestSchedStateDecodeCapacityFromInput(t *testing.T) {
	st := SchedState{Queued: make([]SchedJob, 100)}
	b, _ := json.Marshal(st)
	var got SchedState
	if !decodeSchedState(b, &got) {
		t.Fatal("canonical snapshot refused")
	}
	if n := len(b)/minSchedJobLen + 1; cap(got.Queued) > n {
		t.Fatalf("cap(Queued) = %d, input holds at most %d jobs", cap(got.Queued), n)
	}
}

func TestSchedStateDecodeInternsStrings(t *testing.T) {
	st := SchedState{Queued: []SchedJob{{User: "alice", State: "queued"}, {User: "alice", State: "queued"}}}
	b, _ := json.Marshal(st)
	var got SchedState
	if !decodeSchedState(b, &got) {
		t.Fatal("canonical snapshot refused")
	}
	if u0, u1 := got.Queued[0].User, got.Queued[1].User; u0 != "alice" || unsafe.StringData(u0) != unsafe.StringData(u1) {
		t.Fatalf("users %q/%q not interned", u0, u1)
	}
}

// FuzzSchedStateJSON pins both halves of the direct snapshot codec
// against encoding/json. For a state built from the fuzzed fields the
// encoder's bytes equal json.Marshal's and Decode agrees with
// json.Unmarshal; for fuzzed raw bytes, whenever the direct decoder
// accepts, json.Unmarshal also succeeds and yields the same struct.
func FuzzSchedStateJSON(f *testing.F) {
	canon, _ := json.Marshal(codecStates()[2])
	plain, _ := json.Marshal(SchedState{
		NowMS: 1, Serial: 2, Nodes: []NodeStatus{{Name: "n", Cores: 1, State: "up"}},
		Queued: []SchedJob{{ID: 3, Name: "j", User: "u", State: "queued"}},
		Dyn:    []SchedDynReq{{JobID: 3, Cores: 1, Seq: 1}},
	})
	p := string(plain)
	f.Add("n0", "alice", "queued", int64(1), int64(-1), uint64(0), uint8(0), uint64(0), uint8(0), plain)
	f.Add("\xff\xfe", "a<b>&c", "q\"\\\x00", int64(math.MinInt64), int64(math.MaxInt64), uint64(math.MaxUint64), uint8(0xff), uint64(math.MaxUint64), uint8(0xff), canon)
	f.Add("ü☃", "\u2028", "\x7f", int64(1)<<40, int64(-1)<<40, uint64(1)<<63, uint8(0x55), uint64(3), uint8(2), []byte(strings.Replace(p, ":1,", ": 1,", 1)))
	f.Add("", "", "", int64(0), int64(0), uint64(0), uint8(0xaa), uint64(0), uint8(4), []byte(strings.Replace(p, `"j"`, `"\u006a"`, 1)))
	f.Add("x", "y", "z", int64(7), int64(-7), uint64(7), uint8(3), uint64(0), uint8(0), []byte(strings.Replace(p, `"now_ms":1`, `"now_ms":-0`, 1)))
	f.Add("x", "y", "z", int64(7), int64(-7), uint64(7), uint8(3), uint64(0), uint8(0), []byte(strings.Replace(p, `"serial":2`, `"serial":18446744073709551616`, 1)))
	f.Add("x", "y", "z", int64(7), int64(-7), uint64(7), uint8(3), uint64(0), uint8(0), []byte(strings.Replace(p, `"j"`, "\"\xc3\"", 1)))
	f.Add("x", "y", "z", int64(7), int64(-7), uint64(7), uint8(3), uint64(0), uint8(0), []byte(strings.Replace(p, `"cores":1,"seq"`, `"cores":0,"seq"`, 1)))
	f.Add("x", "y", "z", int64(7), int64(-7), uint64(7), uint8(3), uint64(0), uint8(0), []byte(`{"now_ms":1,"nodes":null,"queued":[],"active":null,"dyn":null,"serial":0}`))
	f.Add("x", "y", "z", int64(7), int64(-7), uint64(7), uint8(3), uint64(1), uint8(3), []byte(strings.Replace(p, `"serial":2}`, `"serial":2,"since":1,"removed":[4,-5]}`, 1)))
	f.Add("x", "y", "z", int64(7), int64(-7), uint64(7), uint8(3), uint64(1), uint8(3), []byte(strings.Replace(p, `"serial":2}`, `"serial":2,"removed":[]}`, 1)))
	f.Fuzz(func(t *testing.T, name, user, state string, a, b int64, serial uint64, flags uint8, since uint64, delta uint8, raw []byte) {
		st := fuzzState(name, user, state, a, b, serial, flags)
		addDelta(&st, a, b, since, delta)
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendSchedStateJSON(nil, &st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode mismatch:\n got %s\nwant %s", got, want)
		}
		checkDecodeMatchesJSON(t, got)

		var direct SchedState
		if !decodeSchedState(raw, &direct) {
			return
		}
		var std SchedState
		if err := json.Unmarshal(raw, &std); err != nil {
			t.Fatalf("direct decoder accepted %q, json.Unmarshal: %v", raw, err)
		}
		if !reflect.DeepEqual(direct, std) {
			t.Fatalf("decode of %q:\n direct %+v\n stdlib %+v", raw, direct, std)
		}
	})
}

// addDelta sets the delta fields from the fuzzed values: since and a
// derived incarnation (zero or not), and delta's low bits choose a nil,
// empty or one- to three-entry Removed list.
func addDelta(st *SchedState, a, b int64, since uint64, delta uint8) {
	st.Since = since
	if delta&8 != 0 {
		st.Incarnation = since ^ uint64(b)
	}
	if delta&4 != 0 {
		st.Removed = []int{}
	}
	for i := 0; i < int(delta&3); i++ {
		st.Removed = append(st.Removed, int(a)>>i^int(b))
	}
}

// fuzzState spreads the fuzzed fields over every SchedState field;
// flags picks nil versus empty slices and zero versus set omitempty
// fields.
func fuzzState(name, user, state string, a, b int64, serial uint64, flags uint8) SchedState {
	st := SchedState{NowMS: a, Serial: serial}
	if flags&1 != 0 {
		st.Nodes = []NodeStatus{}
	}
	if flags&2 != 0 {
		st.Nodes = append(st.Nodes, NodeStatus{Name: name, Cores: int(a), Used: int(b), State: state})
	}
	if flags&4 != 0 {
		st.Queued = []SchedJob{}
	}
	if flags&8 != 0 {
		st.Queued = append(st.Queued, SchedJob{
			ID: int(a), Name: name, User: user, Group: state, State: state, Cores: int(b), DynCores: int(a >> 3),
			WallSecs: a, SubmitMS: b, StartMS: -a, SysPrio: b ^ a, Evolving: flags&16 != 0, Backfilled: flags&32 != 0,
		})
	}
	if flags&16 != 0 {
		st.Active = []SchedJob{{ID: int(b), Name: user, User: name, State: "running", Cores: 1}}
	}
	if flags&32 != 0 {
		st.Dyn = []SchedDynReq{}
	}
	if flags&64 != 0 {
		st.Dyn = append(st.Dyn, SchedDynReq{JobID: int(a), Seq: int(b)})
	}
	if flags&128 != 0 {
		st.Dyn = append(st.Dyn, SchedDynReq{JobID: int(b), Cores: int(a), Nodes: int(b), PPN: int(a ^ b), Seq: 1, DeadlineMS: b})
	}
	return st
}
