package proto

// Direct JSON codec for SchedState, the scheduler snapshot. At a deep
// queue the snapshot is megabytes of JSON pulled every scheduler
// cycle, and encoding/json's reflection walk dominates the external
// scheduler's cycle time. The encoder below writes exactly the bytes
// encoding/json writes (field order, null for nil slices, omitempty on
// SchedDynReq and on the delta fields Since, Incarnation and Removed,
// strconv integers, and appendString's rule for strings),
// so neither wire version nor any peer sees a difference. The decoder
// accepts only that canonical form and reports anything else —
// whitespace, escapes, reordered or unknown keys, non-integer numbers,
// overflow, invalid UTF-8 — as not handled, in which case
// Envelope.Decode runs json.Unmarshal on the same bytes; every input
// therefore decodes exactly as encoding/json decodes it.

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"
)

// appendSchedState writes payload's JSON encoding when it is a
// SchedState or a non-nil *SchedState; false means the payload is
// something else and the caller must encode it (a typed nil pointer
// falls through so encoding/json writes its "null").
func appendSchedState(buf *bytes.Buffer, payload any) (bool, error) {
	var st *SchedState
	switch p := payload.(type) {
	case *SchedState:
		if p == nil {
			return false, nil
		}
		st = p
	case SchedState:
		st = &p
	default:
		return false, nil
	}
	buf.Grow(schedStateSizeHint(st))
	b, err := appendSchedStateJSON(buf.AvailableBuffer(), st)
	if err != nil {
		return true, err
	}
	buf.Write(b)
	return true, nil
}

// schedStateSizeHint estimates the encoded size so a large snapshot is
// written into one allocation instead of a chain of doublings.
func schedStateSizeHint(st *SchedState) int {
	return 160 + 64*len(st.Nodes) + 224*(len(st.Queued)+len(st.Active)) + 64*len(st.Dyn) + 8*len(st.Removed)
}

// appendSchedStateJSON appends the encoding/json encoding of st to b.
func appendSchedStateJSON(b []byte, st *SchedState) ([]byte, error) {
	var err error
	b = append(b, `{"now_ms":`...)
	b = strconv.AppendInt(b, st.NowMS, 10)
	b = append(b, `,"nodes":`...)
	if st.Nodes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range st.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			n := &st.Nodes[i]
			b = append(b, `{"name":`...)
			if b, err = appendString(b, n.Name); err != nil {
				return b, err
			}
			b = append(b, `,"cores":`...)
			b = strconv.AppendInt(b, int64(n.Cores), 10)
			b = append(b, `,"used":`...)
			b = strconv.AppendInt(b, int64(n.Used), 10)
			b = append(b, `,"state":`...)
			if b, err = appendString(b, n.State); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"queued":`...)
	if b, err = appendSchedJobs(b, st.Queued); err != nil {
		return b, err
	}
	b = append(b, `,"active":`...)
	if b, err = appendSchedJobs(b, st.Active); err != nil {
		return b, err
	}
	b = append(b, `,"dyn":`...)
	if st.Dyn == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range st.Dyn {
			if i > 0 {
				b = append(b, ',')
			}
			r := &st.Dyn[i]
			b = append(b, `{"job_id":`...)
			b = strconv.AppendInt(b, int64(r.JobID), 10)
			if r.Cores != 0 {
				b = append(b, `,"cores":`...)
				b = strconv.AppendInt(b, int64(r.Cores), 10)
			}
			if r.Nodes != 0 {
				b = append(b, `,"nodes":`...)
				b = strconv.AppendInt(b, int64(r.Nodes), 10)
			}
			if r.PPN != 0 {
				b = append(b, `,"ppn":`...)
				b = strconv.AppendInt(b, int64(r.PPN), 10)
			}
			b = append(b, `,"seq":`...)
			b = strconv.AppendInt(b, int64(r.Seq), 10)
			if r.DeadlineMS != 0 {
				b = append(b, `,"deadline_ms":`...)
				b = strconv.AppendInt(b, r.DeadlineMS, 10)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"serial":`...)
	b = strconv.AppendUint(b, st.Serial, 10)
	if st.Since != 0 {
		b = append(b, `,"since":`...)
		b = strconv.AppendUint(b, st.Since, 10)
	}
	if st.Incarnation != 0 {
		b = append(b, `,"incarnation":`...)
		b = strconv.AppendUint(b, st.Incarnation, 10)
	}
	if len(st.Removed) != 0 {
		b = append(b, `,"removed":[`...)
		for i, id := range st.Removed {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

func appendSchedJobs(b []byte, jobs []SchedJob) ([]byte, error) {
	if jobs == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = append(b, '[')
	for i := range jobs {
		if i > 0 {
			b = append(b, ',')
		}
		j := &jobs[i]
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(j.ID), 10)
		b = append(b, `,"name":`...)
		if b, err = appendString(b, j.Name); err != nil {
			return b, err
		}
		b = append(b, `,"user":`...)
		if b, err = appendString(b, j.User); err != nil {
			return b, err
		}
		b = append(b, `,"group":`...)
		if b, err = appendString(b, j.Group); err != nil {
			return b, err
		}
		b = append(b, `,"state":`...)
		if b, err = appendString(b, j.State); err != nil {
			return b, err
		}
		b = append(b, `,"cores":`...)
		b = strconv.AppendInt(b, int64(j.Cores), 10)
		b = append(b, `,"dyn_cores":`...)
		b = strconv.AppendInt(b, int64(j.DynCores), 10)
		b = append(b, `,"wall_secs":`...)
		b = strconv.AppendInt(b, j.WallSecs, 10)
		b = append(b, `,"submit_ms":`...)
		b = strconv.AppendInt(b, j.SubmitMS, 10)
		b = append(b, `,"start_ms":`...)
		b = strconv.AppendInt(b, j.StartMS, 10)
		b = append(b, `,"sysprio":`...)
		b = strconv.AppendInt(b, j.SysPrio, 10)
		b = append(b, `,"evolving":`...)
		b = strconv.AppendBool(b, j.Evolving)
		b = append(b, `,"backfilled":`...)
		b = strconv.AppendBool(b, j.Backfilled)
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// decodeSchedState decodes data into *st if data is exactly the
// canonical encoding appendSchedStateJSON writes. It reports false,
// leaving *st untouched, for any other input; json.Unmarshal then
// decides what the bytes mean.
func decodeSchedState(data []byte, st *SchedState) bool {
	d := schedDecoder{b: data, strs: make(map[string]string)}
	var out SchedState
	d.lit(`{"now_ms":`)
	out.NowMS = d.int(64)
	d.lit(`,"nodes":`)
	out.Nodes = decodeList(&d, len(`{"name":"","cores":0,"used":0,"state":""}`), decodeNode)
	d.lit(`,"queued":`)
	out.Queued = decodeList(&d, minSchedJobLen, decodeSchedJob)
	d.lit(`,"active":`)
	out.Active = decodeList(&d, minSchedJobLen, decodeSchedJob)
	d.lit(`,"dyn":`)
	out.Dyn = decodeList(&d, len(`{"job_id":0,"seq":0}`), decodeDynReq)
	d.lit(`,"serial":`)
	out.Serial = d.digits()
	if d.opt(`,"since":`) {
		out.Since = d.nonZeroDigits()
	}
	if d.opt(`,"incarnation":`) {
		out.Incarnation = d.nonZeroDigits()
	}
	if d.opt(`,"removed":`) {
		// omitempty: a present list is never null or empty.
		if out.Removed = decodeList(&d, len(`0`), decodeInt); len(out.Removed) == 0 {
			d.bad = true
		}
	}
	d.lit(`}`)
	if d.bad || len(d.b) != 0 {
		return false
	}
	*st = out
	return true
}

// minSchedJobLen is the shortest canonical encoding of a SchedJob.
const minSchedJobLen = len(`{"id":0,"name":"","user":"","group":"","state":"","cores":0,"dyn_cores":0,` +
	`"wall_secs":0,"submit_ms":0,"start_ms":0,"sysprio":0,"evolving":true,"backfilled":true}`)

func decodeNode(d *schedDecoder, n *NodeStatus) {
	d.lit(`{"name":`)
	n.Name = d.str()
	d.lit(`,"cores":`)
	n.Cores = int(d.int(strconv.IntSize))
	d.lit(`,"used":`)
	n.Used = int(d.int(strconv.IntSize))
	d.lit(`,"state":`)
	n.State = d.str()
	d.lit(`}`)
}

func decodeSchedJob(d *schedDecoder, j *SchedJob) {
	d.lit(`{"id":`)
	j.ID = int(d.int(strconv.IntSize))
	d.lit(`,"name":`)
	j.Name = d.str()
	d.lit(`,"user":`)
	j.User = d.str()
	d.lit(`,"group":`)
	j.Group = d.str()
	d.lit(`,"state":`)
	j.State = d.str()
	d.lit(`,"cores":`)
	j.Cores = int(d.int(strconv.IntSize))
	d.lit(`,"dyn_cores":`)
	j.DynCores = int(d.int(strconv.IntSize))
	d.lit(`,"wall_secs":`)
	j.WallSecs = d.int(64)
	d.lit(`,"submit_ms":`)
	j.SubmitMS = d.int(64)
	d.lit(`,"start_ms":`)
	j.StartMS = d.int(64)
	d.lit(`,"sysprio":`)
	j.SysPrio = d.int(64)
	d.lit(`,"evolving":`)
	j.Evolving = d.bool()
	d.lit(`,"backfilled":`)
	j.Backfilled = d.bool()
	d.lit(`}`)
}

func decodeInt(d *schedDecoder, v *int) { *v = int(d.int(strconv.IntSize)) }

// decodeDynReq reads a SchedDynReq; the omitempty fields are present
// only when non-zero, so an explicit zero is not canonical.
func decodeDynReq(d *schedDecoder, r *SchedDynReq) {
	d.lit(`{"job_id":`)
	r.JobID = int(d.int(strconv.IntSize))
	if d.opt(`,"cores":`) {
		r.Cores = int(d.nonZero(d.int(strconv.IntSize)))
	}
	if d.opt(`,"nodes":`) {
		r.Nodes = int(d.nonZero(d.int(strconv.IntSize)))
	}
	if d.opt(`,"ppn":`) {
		r.PPN = int(d.nonZero(d.int(strconv.IntSize)))
	}
	d.lit(`,"seq":`)
	r.Seq = int(d.int(strconv.IntSize))
	if d.opt(`,"deadline_ms":`) {
		r.DeadlineMS = d.nonZero(d.int(64))
	}
	d.lit(`}`)
}

// maxInterned bounds the per-decode string table, so a snapshot of
// all-distinct names costs a failed lookup per string rather than an
// ever-growing map.
const maxInterned = 4096

// schedDecoder walks canonical snapshot bytes. The first mismatch
// latches bad; every later step is then a no-op.
type schedDecoder struct {
	b    []byte // unread input
	bad  bool
	strs map[string]string // interned string values
}

// lit consumes the exact bytes s.
func (d *schedDecoder) lit(s string) {
	if !d.opt(s) {
		d.bad = true
	}
}

// opt consumes s if the input starts with it.
func (d *schedDecoder) opt(s string) bool {
	if d.bad || len(d.b) < len(s) || string(d.b[:len(s)]) != s {
		return false
	}
	d.b = d.b[len(s):]
	return true
}

// nonZero rejects an explicit zero for an omitempty field.
func (d *schedDecoder) nonZero(v int64) int64 {
	if v == 0 {
		d.bad = true
	}
	return v
}

// nonZeroDigits reads an omitempty unsigned field, which is present
// only when non-zero.
func (d *schedDecoder) nonZeroDigits() uint64 {
	u := d.digits()
	if u == 0 {
		d.bad = true
	}
	return u
}

// digits reads a canonical unsigned integer (or the magnitude of a
// signed one): no leading zeros, no overflow of uint64.
func (d *schedDecoder) digits() uint64 {
	if d.bad {
		return 0
	}
	b := d.b
	if len(b) == 0 || b[0] < '0' || b[0] > '9' {
		d.bad = true
		return 0
	}
	if b[0] == '0' {
		if len(b) > 1 && b[1] >= '0' && b[1] <= '9' {
			d.bad = true
			return 0
		}
		d.b = b[1:]
		return 0
	}
	var u uint64
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		c := uint64(b[i] - '0')
		if u > (math.MaxUint64-c)/10 {
			d.bad = true
			return 0
		}
		u = u*10 + c
	}
	d.b = b[i:]
	return u
}

// int reads a canonical signed integer that fits in bits bits.
func (d *schedDecoder) int(bits int) int64 {
	neg := d.opt("-")
	u := d.digits()
	limit := uint64(1)<<(bits-1) - 1
	switch {
	case neg && u == 0: // "-0" is never written
		d.bad = true
	case neg && u <= limit+1:
		return -int64(u-1) - 1
	case !neg && u <= limit:
		return int64(u)
	default:
		d.bad = true
	}
	return 0
}

func (d *schedDecoder) bool() bool {
	if d.opt("true") {
		return true
	}
	d.lit("false")
	return false
}

// str reads a string with no escapes and only valid UTF-8, returning
// an interned copy.
func (d *schedDecoder) str() string {
	if !d.opt(`"`) {
		d.bad = true
		return ""
	}
	b := d.b
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			d.b = b[i+1:]
			return d.intern(b[:i])
		case c < 0x20 || c == '\\':
			d.bad = true
			return ""
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				d.bad = true
				return ""
			}
			i += size
		}
	}
	d.bad = true
	return ""
}

func (d *schedDecoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.strs) < maxInterned {
		d.strs[s] = s
	}
	return s
}

// decodeList reads null (nil) or an array of elements. Capacity grows
// by doubling but never past what the unread bytes could hold at
// minLen bytes per element, so no count read off the wire sizes an
// allocation.
func decodeList[T any](d *schedDecoder, minLen int, elem func(*schedDecoder, *T)) []T {
	if d.opt("null") {
		return nil
	}
	d.lit("[")
	if d.bad {
		return nil
	}
	if d.opt("]") {
		return []T{}
	}
	out := make([]T, 0, min(16, len(d.b)/minLen+1))
	for !d.bad {
		if len(out) == cap(out) {
			grown := make([]T, len(out), min(2*cap(out), len(out)+len(d.b)/minLen+1))
			copy(grown, out)
			out = grown
		}
		out = out[:len(out)+1]
		elem(d, &out[len(out)-1])
		if d.opt("]") {
			return out
		}
		d.lit(",")
	}
	return nil
}

// isZero reports whether st is the zero value, the only destination
// the direct decoder fills (a non-zero one must merge, which is
// json.Unmarshal's business).
func (st *SchedState) isZero() bool {
	return st.NowMS == 0 && st.Serial == 0 && st.Since == 0 && st.Incarnation == 0 &&
		st.Nodes == nil && st.Queued == nil && st.Active == nil && st.Dyn == nil && st.Removed == nil
}
