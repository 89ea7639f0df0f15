package lifecycle

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzTimeline builds a timeline from fuzz input: the strings land in every
// string field, layout drives the span count, the numbers and the flags.
// The first layout byte picks nil, empty or populated Spans.
func fuzzTimeline(trace, tenant, class, cause, kind, spanCause string, id int, slo, at int64, layout []byte) *Timeline {
	next := func() int {
		if len(layout) == 0 {
			return 0
		}
		v := int(layout[0])
		layout = layout[1:]
		return v
	}
	flags := next()
	tl := &Timeline{
		TraceID:     trace,
		ID:          id,
		Tenant:      tenant,
		Class:       class,
		SLOUS:       slo,
		ArrivalUS:   at,
		DeadlineUS:  at + slo,
		Done:        flags&1 != 0,
		Dropped:     flags&2 != 0,
		Met:         flags&4 != 0,
		ElidedSteps: (flags >> 3) - 8,
	}
	if flags&8 != 0 {
		tl.Shard, tl.Cause = tenant, cause
		tl.CompletedUS = at - slo
	}
	switch n := next(); {
	case n%3 == 0:
		// nil Spans encodes as null.
	case n%3 == 1:
		tl.Spans = []Span{}
	default:
		for i := 0; i < n%7; i++ {
			f := next()
			s := Span{
				Kind:        SpanKind(kind),
				StartUS:     at + int64(i),
				EndUS:       at - int64(next())<<40,
				Steps:       next() - 128,
				ElidedSteps: f >> 4,
				Degree:      f & 3,
				Batched:     f&4 != 0,
			}
			if f&8 != 0 {
				s.Cause = spanCause
			}
			if g := next(); g%4 == 1 {
				s.GPUs = []int{}
			} else if g%4 > 1 {
				for j := 0; j < g%9; j++ {
					s.GPUs = append(s.GPUs, next()-64)
				}
			}
			tl.Spans = append(tl.Spans, s)
		}
	}
	return tl
}

// FuzzTimelineJSON checks that the span log's encoder writes exactly what
// json.Marshal writes, on the fast path and through the fallback, into a
// reused buffer. The committed corpus under testdata/fuzz holds strings
// that need escaping (HTML characters, quotes, backslashes, control bytes,
// DEL, invalid UTF-8, U+2028/U+2029, non-ASCII), nil and empty Spans, and
// empty GPU lists.
func FuzzTimelineJSON(f *testing.F) {
	f.Add("req-1", "", "1024x1024", "", "compute", "", 1, int64(5_000_000), int64(12), []byte{5, 2, 0x9f, 3, 7, 1, 2, 3, 4})
	var buf []byte
	f.Fuzz(func(t *testing.T, trace, tenant, class, cause, kind, spanCause string, id int, slo, at int64, layout []byte) {
		tl := fuzzTimeline(trace, tenant, class, cause, kind, spanCause, id, slo, at, layout)
		want, err := json.Marshal(tl)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got, err := appendLine(buf[:0], tl)
		if err != nil {
			t.Fatal(err)
		}
		buf = got
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder wrote\n%s\njson.Marshal wrote\n%s", got, want)
		}
		// Strings json.Marshal writes verbatim must not force the fallback.
		verbatim := true
		for _, s := range []string{trace, tenant, class, cause, kind, spanCause} {
			q, _ := json.Marshal(s)
			verbatim = verbatim && string(q) == `"`+s+`"` && isASCII(s)
		}
		if _, fast := appendTimeline(nil, tl); verbatim && !fast {
			t.Fatalf("plain ASCII strings took the json.Marshal fallback: %q", []string{trace, tenant, class, cause, kind, spanCause})
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
