package main

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"nnbaton/internal/dse"
	"nnbaton/internal/engine"
	"nnbaton/internal/fleet"
	"nnbaton/internal/hardware"
	"nnbaton/internal/mapper"
	"nnbaton/internal/serve"
	"nnbaton/internal/workload"
)

// The checks are exercised on studies small enough to run in a test; each
// test first shows the check accepts the program's real output and then that
// it rejects a tampered copy.

var testCM = hardware.MustCostModel()

func tinySpace() dse.Space {
	return dse.Space{
		Vector: []int{8}, Lanes: []int{8}, Cores: []int{2, 4, 8}, Chiplets: []int{1, 2, 4},
		OL1PerLane: []int{96, 144}, AL1: []int{1024, 4096}, WL1: []int{8192, 32768}, AL2: []int{32768, 65536},
	}
}

func tinyModel() workload.Model {
	return workload.Model{Name: "tiny", Resolution: 32, Layers: []workload.Layer{
		{Model: "tiny", Name: "conv1", HO: 32, WO: 32, CO: 32, CI: 16, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{Model: "tiny", Name: "conv2", HO: 16, WO: 16, CO: 64, CI: 32, R: 3, S: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	}}
}

func TestCheckExploreRejectsTampering(t *testing.T) {
	ctx, model, space := context.Background(), tinyModel(), tinySpace()
	res, err := dse.Explore(ctx, model, space, 512, 3.0, engine.New(testCM))
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(res.Points))
	for i := range all {
		all[i] = i
	}
	if err := checkExplore(ctx, testCM, model, space, 512, 3.0, res, all); err != nil {
		t.Fatalf("untampered explore rejected: %v", err)
	}

	// A point explore priced at the full search's optimum: 2% less energy
	// is below what any mapping can reach.
	tight := -1
	for i, p := range res.Points {
		opt, err := engine.New(testCM).EvalModel(ctx, model, p.HW, mapper.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Energy.Total() <= opt.Energy.Total()*(1+1e-12) {
			tight = i
			break
		}
	}
	if tight < 0 {
		t.Fatal("no explored point sits at the full search's optimum")
	}
	cheap := cloneExplore(res)
	cheap.Points[tight].Energy = cheap.Points[tight].Energy.Scale(0.98)
	if checkExplore(ctx, testCM, model, space, 512, 3.0, cheap, []int{tight}) == nil {
		t.Error("a point priced 2% below the optimum passed")
	}

	short := cloneExplore(res)
	short.Swept--
	if checkExplore(ctx, testCM, model, space, 512, 3.0, short, nil) == nil {
		t.Error("a swept count one short passed")
	}

	flipped := cloneExplore(res)
	flipped.Points[0].MeetsArea = !flipped.Points[0].MeetsArea
	if checkExplore(ctx, testCM, model, space, 512, 3.0, flipped, []int{0}) == nil {
		t.Error("a flipped area verdict passed")
	}
}

func cloneExplore(r dse.ExploreResult) dse.ExploreResult {
	r.Points = append([]dse.Point(nil), r.Points...)
	return r
}

func TestCheckGranularityRejectsTampering(t *testing.T) {
	ctx, model, space := context.Background(), tinyModel(), tinySpace()
	eng := engine.New(testCM)
	res, err := dse.Granularity(ctx, model, space, 512, 2.0, hardware.DefaultProportion(), eng)
	if err != nil {
		t.Fatal(err)
	}
	var sample []winnerRef
	for p := range res.Points {
		for l := range model.Layers {
			sample = append(sample, winnerRef{0, p, l})
		}
	}
	models := []workload.Model{model}
	check := func(r dse.GranularityResult) error {
		return checkGranularity(ctx, testCM, eng, models, space, 512, 2.0, []dse.GranularityResult{r}, sample)
	}
	if err := check(res); err != nil {
		t.Fatalf("untampered granularity study rejected: %v", err)
	}

	tamper := func(f func(p *dse.Point)) dse.GranularityResult {
		r := res
		r.Points = append([]dse.Point(nil), res.Points...)
		f(&r.Points[0])
		return r
	}
	if check(tamper(func(p *dse.Point) { p.MeetsArea = !p.MeetsArea })) == nil {
		t.Error("a flipped area verdict passed")
	}
	if check(tamper(func(p *dse.Point) { p.Energy = p.Energy.Scale(0.98) })) == nil {
		t.Error("a point energy 2% below its layer winners' sum passed")
	}
	if check(dse.GranularityResult{Model: res.Model, Points: res.Points[1:]}) == nil {
		t.Error("a study missing a compute allocation passed")
	}

	// The winner comparison itself: the runner-up, or the winner with 2%
	// less energy, is not the exhaustive reference's winner.
	l, hw := model.Layers[0], res.Points[0].HW
	ref := mapper.SearchExhaustive(l, hw, testCM, mapper.Config{KeepTop: 2})
	if len(ref) < 2 {
		t.Fatalf("want two reference options, got %d", len(ref))
	}
	if err := sameWinner(ref[0], ref[0]); err != nil {
		t.Errorf("identical winners rejected: %v", err)
	}
	if sameWinner(ref[1], ref[0]) == nil {
		t.Error("the runner-up passed as the winner")
	}
	cheaper := ref[0]
	cheaper.Energy = cheaper.Energy.Scale(0.98)
	if sameWinner(cheaper, ref[0]) == nil {
		t.Error("a winner priced 2% low passed")
	}
}

func TestCheckServeRejectsTampering(t *testing.T) {
	ctx := context.Background()
	model := tinyModel()
	hw := hardware.CaseStudy()
	mask, err := hardware.ParseFaultMask("cores1@0", hw)
	if err != nil {
		t.Fatal(err)
	}
	models := []workload.Model{model}
	o, err := serve.BuildOracle(ctx, engine.New(testCM), models, hw, mask, mapper.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOracle(ctx, engine.New(testCM), models, hw, mask, o); err != nil {
		t.Fatalf("untampered oracle rejected: %v", err)
	}
	slow := serve.Oracle{Scenario: o.Scenario, Envelope: o.Envelope,
		SecondsPerInference: map[string]float64{"tiny": o.SecondsPerInference["tiny"] * 0.98}}
	if checkOracle(ctx, engine.New(testCM), models, hw, mask, slow) == nil {
		t.Error("a service time 2% off EvalModel passed")
	}

	// Three models at twice saturation, so the queue is deep.
	o = serve.Oracle{Scenario: "healthy", SecondsPerInference: map[string]float64{
		"alexnet": 0.0036, "darknet19": 0.0034, "resnet50": 0.0048}}
	tr := poissonTrace(rand.New(rand.NewSource(7)), 400, serveSaturationGapUS/2)
	r, err := serve.Simulate(tr, o, servePolicy)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServeResult(tr, o, r); err != nil {
		t.Fatalf("untampered simulation rejected: %v", err)
	}
	dropped := serve.Trace{Requests: append(append([]serve.Request(nil), tr.Requests[:10]...), tr.Requests[11:]...)}
	short, err := serve.Simulate(dropped, o, servePolicy)
	if err != nil {
		t.Fatal(err)
	}
	if checkServeResult(tr, o, short) == nil {
		t.Error("a simulation that dropped a request passed")
	}
	tamper := func(f func(r *serve.Result)) serve.Result {
		c := r
		c.PerModel = append([]serve.ModelRow(nil), r.PerModel...)
		f(&c)
		return c
	}
	for name, bad := range map[string]serve.Result{
		"latency below one inference": tamper(func(r *serve.Result) {
			r.PerModel[0].P50US = o.SecondsPerInference[r.PerModel[0].Model] * 1e6 * 0.98
		}),
		"busy time 2% short":  tamper(func(r *serve.Result) { r.BusyUS *= 0.98 }),
		"p99 above max":       tamper(func(r *serve.Result) { r.P99US = r.MaxUS * 1.01 }),
		"utilization above 1": tamper(func(r *serve.Result) { r.Utilization = 1.01 }),
		"a request counted twice": tamper(func(r *serve.Result) {
			r.PerModel[1].Requests++
		}),
	} {
		if checkServeResult(tr, o, bad) == nil {
			t.Errorf("%s passed", name)
		}
	}
}

func TestCheckFleetRejectsTampering(t *testing.T) {
	ctx := context.Background()
	sp := tinySpace()
	m := tinyModel()
	spec := fleet.StudySpec{Model: m.Name, Res: m.Resolution, Layers: m.Layers, MACs: 512, AreaMM2: 3.0, Space: &sp, Shards: 2}
	f := &fleetFlow{scratch: t.TempDir(), specs: []fleet.StudySpec{spec}}
	inst, err := f.setUp(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := inst.run(ctx)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil || ops.failed != 0 {
		t.Fatalf("fleet run: %v (%d of %d failed)", err, ops.failed, ops.attempted)
	}
	if err := f.check(ctx); err != nil {
		t.Fatalf("untampered fleet result rejected: %v", err)
	}
	bad := append([]byte(nil), f.results[0]...)
	bad[len(bad)/2] ^= 1
	if checkFleet(ctx, t.TempDir(), f.specs, [][]byte{bad}) == nil {
		t.Error("a result with one flipped byte passed")
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	a := poissonTrace(rand.New(rand.NewSource(3)), 50, 100)
	b := poissonTrace(rand.New(rand.NewSource(3)), 50, 100)
	c := poissonTrace(rand.New(rand.NewSource(4)), 50, 100)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("serving traces do not follow the seed")
	}
	if !reflect.DeepEqual(fleetMix(3), fleetMix(3)) || reflect.DeepEqual(fleetMix(3), fleetMix(4)) {
		t.Error("the fleet study mix does not follow the seed")
	}
	// Every model has two studies with distinct area limits.
	areas := map[string][]float64{}
	for _, s := range fleetMix(5) {
		areas[s.Model] = append(areas[s.Model], s.AreaMM2)
	}
	for _, m := range fleetModels {
		if len(areas[m]) != 2 || areas[m][0] == areas[m][1] {
			t.Errorf("%s studies have areas %v, want two distinct", m, areas[m])
		}
	}
}
