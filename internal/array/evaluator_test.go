package array

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sramco/internal/wire"
)

// lvtLikeIRead emulates the stronger low-Vt flavor: same functional form as
// the paper's fitted HVT law with a lower threshold and higher drive.
func lvtLikeIRead(vddc, vssc float64) float64 {
	return 2.0e-4 * math.Pow(vddc-vssc-0.280, 1.25)
}

// evaluatorTechs builds the four (accounting × flavor) technology variants
// the bit-identity property must span.
func evaluatorTechs(t *testing.T) []*Tech {
	t.Helper()
	base := testTech(t) // HVT-law, AllColumns
	hvtWC := *base
	hvtWC.Accounting = WorstCasePath
	lvtAC := *base
	lvtAC.IRead = lvtLikeIRead
	lvtAC.LeakCell = 1.692e-9
	lvtAC.WriteDelayCell = func(vwl float64) float64 { return 1.5e-12 * 0.55 / vwl }
	lvtWC := lvtAC
	lvtWC.Accounting = WorstCasePath
	return []*Tech{base, &hvtWC, &lvtAC, &lvtWC}
}

// TestEvaluatorBitIdenticalToEvaluate is the contract test of the evaluation
// engine: over a randomized sample of designs spanning flat and divided
// wordlines, both energy accountings and both flavors, Evaluator.Eval must
// reproduce array.Evaluate field for field at the == level (reflect.DeepEqual
// on the Result structs — no tolerance). A single Evaluator per (tech,
// activity) is reused across the whole sample, so Prepare's memoization and
// chunk transitions are exercised, and each design is additionally evaluated
// at a neighbor point of the same chunk to hit the memo fast path.
func TestEvaluatorBitIdenticalToEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	acts := []Activity{{Alpha: 0.5, Beta: 0.5}, {Alpha: 0.31, Beta: 0.82}}
	for _, tech := range evaluatorTechs(t) {
		for _, a := range acts {
			ev, err := NewEvaluator(tech, a)
			if err != nil {
				t.Fatalf("NewEvaluator: %v", err)
			}
			checked := 0
			for checked < 200 {
				nr := 2 << rng.Intn(10)  // 2..1024
				nc := 1 << rng.Intn(11)  // 1..1024
				segs := 1 << rng.Intn(4) // 1..8
				w := 64
				if nc < w {
					w = nc
				}
				d := Design{
					Geom: wire.Geometry{
						NR: nr, NC: nc, W: w,
						Npre: 1 + rng.Intn(50), Nwr: 1 + rng.Intn(20),
						WLSegs: segs,
					},
					VDDC: 0.55, VSSC: -0.01 * float64(rng.Intn(25)), VWL: 0.55,
				}
				if d.Geom.Validate() != nil {
					continue
				}
				checked++
				want, err := Evaluate(tech, d, a)
				if err != nil {
					t.Fatalf("Evaluate(%+v): %v", d, err)
				}
				if err := ev.Prepare(d.Geom, d.VDDC, d.VSSC, d.VWL); err != nil {
					t.Fatalf("Prepare(%+v): %v", d, err)
				}
				got, err := ev.Eval(d.Geom.Npre, d.Geom.Nwr)
				if err != nil {
					t.Fatalf("Eval(%+v): %v", d, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("Evaluator diverges from Evaluate at %+v:\n  want %+v\n  got  %+v", d, want, got)
				}
				// A neighbor inside the same chunk: Prepare memo-hits, the
				// per-point terms are recomputed from the cached invariants.
				n := d
				n.Geom.Npre = 1 + d.Geom.Npre%50
				n.Geom.Nwr = 1 + d.Geom.Nwr%20
				want2, err := Evaluate(tech, n, a)
				if err != nil {
					t.Fatalf("Evaluate(%+v): %v", n, err)
				}
				if err := ev.Prepare(n.Geom, n.VDDC, n.VSSC, n.VWL); err != nil {
					t.Fatalf("Prepare memo(%+v): %v", n, err)
				}
				got2, err := ev.Eval(n.Geom.Npre, n.Geom.Nwr)
				if err != nil {
					t.Fatalf("Eval(%+v): %v", n, err)
				}
				if !reflect.DeepEqual(want2, got2) {
					t.Fatalf("memoized Evaluator diverges at %+v:\n  want %+v\n  got  %+v", n, want2, got2)
				}
			}
		}
	}
}

// TestEvaluatorEvalIntoMatchesEval proves the allocation-free form fills the
// caller's Result identically to Eval.
func TestEvaluatorEvalIntoMatchesEval(t *testing.T) {
	tech := testTech(t)
	ev, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	g := wire.Geometry{NR: 256, NC: 64, W: 64, Npre: 1, Nwr: 1}
	if err := ev.Prepare(g, 0.55, -0.1, 0.55); err != nil {
		t.Fatal(err)
	}
	want, err := ev.Eval(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	got.EDP = math.NaN() // stale garbage EvalInto must fully overwrite
	if err := ev.EvalInto(7, 3, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*want, got) {
		t.Fatalf("EvalInto diverges from Eval:\n  want %+v\n  got  %+v", *want, got)
	}
}

// TestEvaluatorErrors covers the guard paths: unprepared Eval, invalid fin
// counts, invalid rails and geometry in Prepare, zero Evaluator, and a
// non-positive read current.
func TestEvaluatorErrors(t *testing.T) {
	tech := testTech(t)
	ev, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(1, 1); err == nil {
		t.Error("Eval before Prepare accepted")
	}
	g := wire.Geometry{NR: 128, NC: 64, W: 64, Npre: 1, Nwr: 1}
	if err := ev.Prepare(g, 0.40, 0, 0.55); err == nil {
		t.Error("VDDC below Vdd accepted")
	}
	if err := ev.Prepare(g, 0.55, 0.05, 0.55); err == nil {
		t.Error("positive VSSC accepted")
	}
	if err := ev.Prepare(g, 0.55, 0, 0.40); err == nil {
		t.Error("VWL below Vdd accepted")
	}
	bad := g
	bad.NR = 3
	if err := ev.Prepare(bad, 0.55, 0, 0.55); err == nil {
		t.Error("invalid geometry accepted")
	}
	if err := ev.Prepare(g, 0.55, 0, 0.55); err != nil {
		t.Fatalf("valid Prepare after failures: %v", err)
	}
	if _, err := ev.Eval(0, 1); err == nil {
		t.Error("N_pre = 0 accepted")
	}
	if _, err := ev.Eval(1, 0); err == nil {
		t.Error("N_wr = 0 accepted")
	}
	if _, err := NewEvaluator(tech, Activity{Alpha: 2}); err == nil {
		t.Error("invalid activity accepted")
	}
	badTech := *tech
	badTech.IRead = nil
	if _, err := NewEvaluator(&badTech, act); err == nil {
		t.Error("invalid tech accepted")
	}
	var zero Evaluator
	if err := zero.Prepare(g, 0.55, 0, 0.55); err == nil {
		t.Error("zero Evaluator accepted Prepare")
	}
	zeroI := *tech
	zeroI.IRead = func(a, b float64) float64 { return 0 }
	ev2, err := NewEvaluator(&zeroI, act)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev2.Prepare(g, 0.55, 0, 0.55); err == nil {
		t.Error("zero read current accepted")
	}
	if _, err := ev2.Eval(1, 1); err == nil {
		t.Error("Eval after failed Prepare accepted")
	}
}

// TestEvaluatorClonesShareTechConcurrently mirrors the sharded search's use
// of the engine: one validated Evaluator, one clone per worker, all sharing
// the read-only *Tech and one rail stage while preparing different chunks
// concurrently. Run under -race (the Makefile check gate) this proves the
// sharing is sound.
func TestEvaluatorClonesShareTechConcurrently(t *testing.T) {
	tech := testTech(t)
	proto, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Evaluate(tech, design(512, 64, 5, 2, 0.55, -0.12, 0.55), act)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := proto.Rails(0.55, -0.12, 0.55, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			ev := proto.Clone()
			vssc := -0.01 * float64(worker)
			for nr := 2; nr <= 1024; nr *= 2 {
				g := wire.Geometry{NR: nr, NC: 64, W: 64, Npre: 1, Nwr: 1}
				if err := ev.Prepare(g, 0.55, vssc, 0.55); err != nil {
					errs <- err
					return
				}
				var r Result
				for npre := 1; npre <= 8; npre++ {
					for nwr := 1; nwr <= 4; nwr++ {
						if err := ev.EvalInto(npre, nwr, &r); err != nil {
							errs <- err
							return
						}
					}
				}
			}
			// Every worker re-derives the reference point on its clone from
			// the shared rail stage; one worker first through Prepare.
			g := wire.Geometry{NR: 512, NC: 64, W: 64}
			var prepares []func() error
			if worker == 5 {
				prepares = append(prepares, func() error { return ev.Prepare(g, 0.55, -0.12, 0.55) })
			}
			prepares = append(prepares, func() error { return ev.PrepareStaged(g, &shared, 0, 0) })
			for _, prepare := range prepares {
				if err := prepare(); err != nil {
					errs <- err
					return
				}
				got, err := ev.Eval(5, 2)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("concurrent clone diverges from Evaluate")
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
