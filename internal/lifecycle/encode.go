package lifecycle

import (
	"encoding/json"
	"strconv"
)

// appendLine appends tl's JSON encoding and a newline to buf and returns
// the extended buffer. The bytes equal json.Marshal's. The fields are
// written directly, without reflection; when a string would need escaping
// (quotes, backslashes, control bytes, HTML characters, non-ASCII), the
// whole timeline goes through json.Marshal instead. Trace IDs and tenants
// come from clients on the live path, so that case is real.
func appendLine(buf []byte, tl *Timeline) ([]byte, error) {
	start := len(buf)
	out, ok := appendTimeline(buf, tl)
	if !ok {
		data, err := json.Marshal(tl)
		if err != nil {
			return out[:start], err
		}
		out = append(out[:start], data...)
	}
	return append(out, '\n'), nil
}

// appendTimeline writes tl's fields in struct order with encoding/json's
// omitempty rules. It reports false as soon as a string is not plain.
func appendTimeline(b []byte, tl *Timeline) ([]byte, bool) {
	ok := plain(tl.TraceID) && plain(tl.Tenant) && plain(tl.Class) &&
		plain(tl.Shard) && plain(tl.Cause)
	for i := 0; ok && i < len(tl.Spans); i++ {
		ok = plain(string(tl.Spans[i].Kind)) && plain(tl.Spans[i].Cause)
	}
	if !ok {
		return b, false
	}
	b = appendStr(append(b, `{"trace_id":`...), tl.TraceID)
	b = strconv.AppendInt(append(b, `,"request_id":`...), int64(tl.ID), 10)
	if tl.Tenant != "" {
		b = appendStr(append(b, `,"tenant":`...), tl.Tenant)
	}
	b = appendStr(append(b, `,"class":`...), tl.Class)
	if tl.Shard != "" {
		b = appendStr(append(b, `,"shard":`...), tl.Shard)
	}
	b = strconv.AppendInt(append(b, `,"slo_us":`...), tl.SLOUS, 10)
	b = strconv.AppendInt(append(b, `,"arrival_us":`...), tl.ArrivalUS, 10)
	b = strconv.AppendInt(append(b, `,"deadline_us":`...), tl.DeadlineUS, 10)
	if tl.CompletedUS != 0 {
		b = strconv.AppendInt(append(b, `,"completed_us":`...), tl.CompletedUS, 10)
	}
	b = strconv.AppendBool(append(b, `,"done":`...), tl.Done)
	if tl.Dropped {
		b = append(b, `,"dropped":true`...)
	}
	if tl.Cause != "" {
		b = appendStr(append(b, `,"cause":`...), tl.Cause)
	}
	b = strconv.AppendBool(append(b, `,"met":`...), tl.Met)
	if tl.ElidedSteps != 0 {
		b = strconv.AppendInt(append(b, `,"elided_steps":`...), int64(tl.ElidedSteps), 10)
	}
	b = append(b, `,"spans":`...)
	if tl.Spans == nil {
		return append(b, "null}"...), true
	}
	b = append(b, '[')
	for i := range tl.Spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSpan(b, &tl.Spans[i])
	}
	return append(b, "]}"...), true
}

func appendSpan(b []byte, s *Span) []byte {
	b = appendStr(append(b, `{"kind":`...), string(s.Kind))
	b = strconv.AppendInt(append(b, `,"start_us":`...), s.StartUS, 10)
	b = strconv.AppendInt(append(b, `,"end_us":`...), s.EndUS, 10)
	if s.Steps != 0 {
		b = strconv.AppendInt(append(b, `,"steps":`...), int64(s.Steps), 10)
	}
	if s.ElidedSteps != 0 {
		b = strconv.AppendInt(append(b, `,"elided_steps":`...), int64(s.ElidedSteps), 10)
	}
	if s.Degree != 0 {
		b = strconv.AppendInt(append(b, `,"degree":`...), int64(s.Degree), 10)
	}
	if len(s.GPUs) > 0 {
		b = append(b, `,"gpus":[`...)
		for i, g := range s.GPUs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(g), 10)
		}
		b = append(b, ']')
	}
	if s.Batched {
		b = append(b, `,"batched":true`...)
	}
	if s.Cause != "" {
		b = appendStr(append(b, `,"cause":`...), s.Cause)
	}
	return append(b, '}')
}

// plain reports whether encoding/json writes s verbatim between quotes:
// ASCII other than control bytes, '"', '\\' and the HTML characters it
// escapes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

func appendStr(b []byte, s string) []byte {
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
