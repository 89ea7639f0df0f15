package costmodel

import (
	"encoding/json"
	"fmt"
	"time"

	"tetriserve/internal/model"
)

// In production the offline profiling pass runs once per (model, hardware)
// pair and its lookup table is shipped with the deployment; this file makes
// the Profile a durable artifact (JSON) so the daemon can load it instead
// of re-profiling at startup.

// profileJSON is the serialized form.
type profileJSON struct {
	Model string  `json:"model"`
	Topo  string  `json:"topology"`
	Noise float64 `json:"noise"`
	// CachedStepRelCost is γ, the cache-approximated step's relative cost;
	// omitted (0) in profiles that predate the cache dimension, in which
	// case loading falls back to DefaultCachedStepRelCost.
	CachedStepRelCost float64            `json:"cached_step_rel_cost,omitempty"`
	Degrees           []int              `json:"degrees"`
	Entries           []profileEntryJSON `json:"entries"`
}

type profileEntryJSON struct {
	W       int     `json:"w"`
	H       int     `json:"h"`
	Degree  int     `json:"degree"`
	Batch   int     `json:"batch"`
	MeanUS  int64   `json:"mean_us"`
	CV      float64 `json:"cv"`
	Samples int     `json:"samples"`
}

// MarshalJSON implements json.Marshaler with deterministic entry order:
// by resolution (pixels, then width), degree, batch.
func (p *Profile) MarshalJSON() ([]byte, error) {
	out := profileJSON{
		Model:             p.ModelName,
		Topo:              p.TopoName,
		Noise:             p.Noise,
		CachedStepRelCost: p.cachedRelCost,
		Degrees:           p.degrees,
	}
	for _, r := range p.rows {
		r.each(func(k, bs int, e Entry) {
			out.Entries = append(out.Entries, profileEntryJSON{
				W: r.res.W, H: r.res.H, Degree: k, Batch: bs,
				MeanUS: e.Mean.Microseconds(), CV: e.CV, Samples: e.Samples,
			})
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Profile) UnmarshalJSON(data []byte) error {
	var in profileJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("costmodel: decoding profile: %w", err)
	}
	if len(in.Degrees) == 0 || len(in.Entries) == 0 {
		return fmt.Errorf("costmodel: profile missing degrees or entries")
	}
	if in.CachedStepRelCost < 0 || in.CachedStepRelCost > 1 {
		return fmt.Errorf("costmodel: cached_step_rel_cost %v outside [0, 1]", in.CachedStepRelCost)
	}
	// Entries land in a fresh table: a decode error leaves p untouched.
	t := Profile{degrees: in.Degrees}
	for _, e := range in.Entries {
		if e.MeanUS <= 0 {
			return fmt.Errorf("costmodel: non-positive step time for %dx%d k=%d", e.W, e.H, e.Degree)
		}
		key := Key{Res: model.Resolution{W: e.W, H: e.H}, Degree: e.Degree, Batch: e.Batch}
		t.set(key, Entry{
			Mean:    time.Duration(e.MeanUS) * time.Microsecond,
			CV:      e.CV,
			Samples: e.Samples,
		})
	}
	t.indexMins()
	p.ModelName = in.Model
	p.TopoName = in.Topo
	p.Noise = in.Noise
	p.cachedRelCost = in.CachedStepRelCost
	p.degrees = in.Degrees
	p.rows = t.rows
	// A loaded table is as real as a freshly built one: version must land
	// ≥ 1 so derived caches keyed on (profile, version) never alias a loaded
	// profile with the zero value, and loading over an existing table must
	// bump — the entries or the discount table may differ, and memoized
	// mixes derived from the old values have to invalidate.
	p.version++
	return nil
}
