package costmodel

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"tetriserve/internal/model"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/stats"
)

// refBuild is BuildProfile's profiling pass written into a plain map: the
// reference the row table must reproduce entry for entry.
func refBuild(est *Estimator, cfg ProfilerConfig, into map[Key]Entry) {
	cfg.defaults()
	rng := stats.NewRNG(cfg.Seed)
	for _, res := range cfg.Resolutions {
		for _, k := range est.Topo.Degrees() {
			for _, bs := range cfg.Batches {
				mean := est.StepTime(res, simgpu.CanonicalGroup(0, k), bs)
				var acc stats.Running
				for s := 0; s < cfg.Samples; s++ {
					acc.Add(Jitter(mean, cfg.Noise, rng).Seconds())
				}
				into[Key{res, k, bs}] = Entry{
					Mean:    time.Duration(acc.Mean() * float64(time.Second)),
					CV:      acc.CV(),
					Samples: cfg.Samples,
				}
			}
		}
	}
}

// extendCfg is the profiling config Extend uses for res.
func extendCfg(p *Profile, res model.Resolution) ProfilerConfig {
	return ProfilerConfig{
		Resolutions: []model.Resolution{res},
		Noise:       p.Noise,
		Seed:        uint64(res.W)<<20 ^ uint64(res.H) ^ 42,
	}
}

// panics runs f and reports the panic message, "" when it returned.
func panics(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// refMinStepTime is MinStepTime as a degree-by-degree scan of the map.
func refMinStepTime(ref map[Key]Entry, degrees []int, res model.Resolution) (time.Duration, int) {
	var best time.Duration
	bestK := 0
	for _, k := range degrees {
		e, ok := ref[Key{res, k, 1}]
		if !ok {
			panic(unprofiled(res, k, 1))
		}
		if bestK == 0 || e.Mean < best {
			best, bestK = e.Mean, k
		}
	}
	return best, bestK
}

// checkTable compares every lookup on p with the map reference over the
// reference's keys, the degree list, and a few values neither holds.
func checkTable(t *testing.T, name string, p *Profile, ref map[Key]Entry) {
	t.Helper()
	resSet := []model.Resolution{{W: 4096, H: 16}}
	ks := append([]int{0, 3, 16}, p.Degrees()...)
	bss := []int{0, 5, 64}
	for k := range ref {
		if !slices.Contains(resSet, k.Res) {
			resSet = append(resSet, k.Res)
		}
		ks = append(ks, k.Degree)
		bss = append(bss, k.Batch)
	}
	wantRes := slices.Clone(resSet[1:])
	slices.SortFunc(wantRes, func(a, b model.Resolution) int {
		if a.Pixels() != b.Pixels() {
			return a.Pixels() - b.Pixels()
		}
		return a.W - b.W
	})
	if got := p.Resolutions(); !slices.Equal(got, wantRes) {
		t.Errorf("%s: Resolutions() = %v, want %v", name, got, wantRes)
	}
	for _, res := range resSet {
		_, has := ref[Key{res, 1, 1}]
		if p.Has(res) != has {
			t.Errorf("%s: Has(%v) = %v, want %v", name, res, !has, has)
		}
		var gotT, wantT time.Duration
		var gotK, wantK int
		gotP := panics(func() { gotT, gotK = p.MinStepTime(res) })
		wantP := panics(func() { wantT, wantK = refMinStepTime(ref, p.Degrees(), res) })
		if gotP != wantP || gotT != wantT || gotK != wantK {
			t.Errorf("%s: MinStepTime(%v) = (%v, %d, panic %q), want (%v, %d, panic %q)",
				name, res, gotT, gotK, gotP, wantT, wantK, wantP)
		}
		for _, k := range ks {
			for _, bs := range bss {
				want, ok := ref[Key{res, k, bs}]
				got, gotOK := p.Lookup(res, k, bs)
				if got != want || gotOK != ok {
					t.Errorf("%s: Lookup(%v, %d, %d) = (%v, %v), want (%v, %v)", name, res, k, bs, got, gotOK, want, ok)
				}
				var st time.Duration
				msg := panics(func() { st = p.StepTimeBatch(res, k, bs) })
				switch {
				case ok && (msg != "" || st != want.Mean):
					t.Errorf("%s: StepTimeBatch(%v, %d, %d) = %v (panic %q), want %v", name, res, k, bs, st, msg, want.Mean)
				case !ok && msg != unprofiled(res, k, bs):
					t.Errorf("%s: StepTimeBatch(%v, %d, %d) on an unprofiled key: panic %q", name, res, k, bs, msg)
				}
			}
		}
	}
}

// loadedProfiles are hand-written profile files the table must index like
// a map: a non-standard degree list, batch sizes outside {1, 2, 4, 8},
// sparse rows (one without its batch-1 entry at degree 1, one missing a
// listed degree), an entry at an unlisted degree, two resolutions with the
// same pixel count, and a duplicated key (the later entry wins).
var loadedProfiles = map[string]string{
	"odd-degrees": `{"model":"m","topology":"t","noise":0.01,"degrees":[1,3,6],"entries":[
		{"w":512,"h":512,"degree":1,"batch":1,"mean_us":900,"cv":0.001,"samples":5},
		{"w":512,"h":512,"degree":3,"batch":1,"mean_us":400,"cv":0.001,"samples":5},
		{"w":512,"h":512,"degree":6,"batch":1,"mean_us":400,"cv":0.001,"samples":5},
		{"w":512,"h":512,"degree":6,"batch":5,"mean_us":1500,"cv":0.002,"samples":5},
		{"w":512,"h":512,"degree":12,"batch":1,"mean_us":100,"cv":0.002,"samples":5},
		{"w":512,"h":256,"degree":1,"batch":1,"mean_us":500,"cv":0,"samples":1},
		{"w":512,"h":256,"degree":3,"batch":1,"mean_us":300,"cv":0,"samples":1},
		{"w":256,"h":512,"degree":6,"batch":3,"mean_us":700,"cv":0,"samples":1},
		{"w":256,"h":512,"degree":1,"batch":1,"mean_us":800,"cv":0,"samples":1},
		{"w":256,"h":512,"degree":3,"batch":1,"mean_us":200,"cv":0,"samples":1},
		{"w":256,"h":512,"degree":6,"batch":1,"mean_us":200,"cv":0,"samples":1},
		{"w":256,"h":512,"degree":3,"batch":1,"mean_us":250,"cv":0,"samples":2}]}`,
	"no-unit-entry": `{"model":"m","topology":"t","noise":0.002,"degrees":[2,1,8],"entries":[
		{"w":1024,"h":1024,"degree":2,"batch":7,"mean_us":5000,"cv":0.01,"samples":3},
		{"w":1024,"h":1024,"degree":8,"batch":1,"mean_us":1000,"cv":0.01,"samples":3},
		{"w":1024,"h":1024,"degree":2,"batch":1,"mean_us":2000,"cv":0.01,"samples":3},
		{"w":256,"h":256,"degree":2,"batch":1,"mean_us":90,"cv":0.01,"samples":3},
		{"w":256,"h":256,"degree":1,"batch":1,"mean_us":100,"cv":0.01,"samples":3},
		{"w":256,"h":256,"degree":8,"batch":1,"mean_us":90,"cv":0.01,"samples":3}]}`,
}

// refLoad decodes a profile file's entries into the reference map.
func refLoad(t *testing.T, data string) map[Key]Entry {
	t.Helper()
	var in profileJSON
	if err := json.Unmarshal([]byte(data), &in); err != nil {
		t.Fatal(err)
	}
	ref := map[Key]Entry{}
	for _, e := range in.Entries {
		ref[Key{model.Resolution{W: e.W, H: e.H}, e.Degree, e.Batch}] = Entry{
			Mean: time.Duration(e.MeanUS) * time.Microsecond, CV: e.CV, Samples: e.Samples,
		}
	}
	return ref
}

func TestTableMatchesMapReference(t *testing.T) {
	custom := ProfilerConfig{
		Resolutions: []model.Resolution{model.Res512, {W: 768, H: 1344}},
		Batches:     []int{3, 1, 8},
		Seed:        7,
	}
	for name, c := range map[string]struct {
		est *Estimator
		cfg ProfilerConfig
	}{
		"flux-h100": {fluxEst(), ProfilerConfig{}},
		"sd3-a40":   {sd3Est(), ProfilerConfig{}},
		"custom":    {fluxEst(), custom},
	} {
		p := BuildProfile(c.est, c.cfg)
		ref := map[Key]Entry{}
		refBuild(c.est, c.cfg, ref)
		checkTable(t, "built "+name, p, ref)

		// Extend adds a row; extending a profiled resolution changes nothing.
		ext := model.Resolution{W: 1280, H: 720}
		refBuild(c.est, extendCfg(p, ext), ref)
		p.Extend(c.est, ext)
		p.Extend(c.est, model.Res512)
		checkTable(t, "extended "+name, p, ref)
	}

	for name, data := range loadedProfiles {
		var p Profile
		if err := json.Unmarshal([]byte(data), &p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := refLoad(t, data)
		checkTable(t, "loaded "+name, &p, ref)

		// Extend merges into a sparse row (no degree-1 batch-1 entry) as
		// well as adding a fresh one; the estimator's degrees need not
		// match the loaded list.
		est := fluxEst()
		for _, res := range []model.Resolution{model.Res1024, {W: 640, H: 480}} {
			if _, ok := ref[Key{res, 1, 1}]; ok {
				continue
			}
			refBuild(est, extendCfg(&p, res), ref)
			p.Extend(est, res)
		}
		checkTable(t, "loaded+extended "+name, &p, ref)
	}
}

// TestProfileJSONBytesPinned pins MarshalJSON of built and extended
// profiles to the bytes the map-backed table produced.
func TestProfileJSONBytesPinned(t *testing.T) {
	extended := BuildProfile(fluxEst(), ProfilerConfig{})
	extended.Extend(fluxEst(), model.Resolution{W: 768, H: 1344})
	for _, c := range []struct {
		name string
		p    *Profile
		sum  string
	}{
		{"flux-h100", BuildProfile(fluxEst(), ProfilerConfig{}), "0e1d3775d3ffd6c1cd821775de49603eea6dba250c3850df7a13de8e01f23a77"},
		{"sd3-a40", BuildProfile(sd3Est(), ProfilerConfig{}), "89031559b88113f441d129030660535e28d7775a804fcae03487dc0de121ab4a"},
		{"custom", BuildProfile(fluxEst(), ProfilerConfig{
			Resolutions: []model.Resolution{model.Res512, {W: 768, H: 1344}},
			Batches:     []int{3, 1, 8},
			Seed:        7,
		}), "38ab0f9d2204764e5f031001627a7f38818e11e0484254ad57fe420a55f75f41"},
		{"extended", extended, "c02a29f8776ffb81f1ae71ced7d4ecb90ee005352d5fb495012a0f0ac777a0e6"},
	} {
		data, err := json.Marshal(c.p)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.sum {
			t.Errorf("%s: MarshalJSON sha256 = %s, want %s", c.name, got, c.sum)
		}
	}
}
