package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sramco"
)

// fuzzServer builds a Server whose heavy compute functions are replaced by
// canned results from one real tiny run each, so the fuzzer exercises the
// full decode → normalize → canonical-key → respond path at decoder speed.
// The /v1/evaluate path stays fully real (a single model evaluation is
// microseconds).
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	fw := framework(f)
	s := New(fw, Config{})

	oreq := OptimizeRequest{CapacityBytes: 128, Flavor: "hvt"}
	if aerr := oreq.normalize(); aerr != nil {
		f.Fatalf("seed optimize request: %v", aerr)
	}
	opts, err := oreq.options()
	if err != nil {
		f.Fatal(err)
	}
	opt, err := fw.Optimize(context.Background(), opts)
	if err != nil {
		f.Fatalf("seed optimize: %v", err)
	}
	pareto, err := fw.Pareto(context.Background(), opts)
	if err != nil {
		f.Fatalf("seed pareto: %v", err)
	}
	yreq := YieldRequest{Flavor: "hvt", N: 16}
	if aerr := yreq.normalize(); aerr != nil {
		f.Fatalf("seed yield request: %v", aerr)
	}
	ycfg, err := yreq.config()
	if err != nil {
		f.Fatal(err)
	}
	yres, err := sramco.MonteCarloYield(context.Background(), ycfg, nil)
	if err != nil {
		f.Fatalf("seed yield: %v", err)
	}

	s.optimizeFn = func(context.Context, sramco.Options) (*sramco.Optimum, error) { return opt, nil }
	s.paretoFn = func(context.Context, sramco.Options) (*sramco.ParetoResult, error) { return pareto, nil }
	s.yieldFn = func(context.Context, sramco.MCConfig, func(sramco.MCCheckpoint) error) (*sramco.MCResult, error) {
		return yres, nil
	}
	return s
}

// FuzzDecodeRequest throws arbitrary bodies at every /v1/* endpoint. The
// contract under fuzz: the handler stack never panics, success responses are
// valid JSON, and every rejection is a structured error envelope with a
// 4xx/5xx status — malformed input must surface as a 400-class error, not a
// crash.
func FuzzDecodeRequest(f *testing.F) {
	s := fuzzServer(f)
	h := s.Handler()
	paths := []string{"/v1/optimize", "/v1/evaluate", "/v1/pareto", "/v1/yield"}

	seeds := []struct {
		which uint8
		body  string
	}{
		{0, `{"capacity_bytes":128,"flavor":"hvt"}`},
		{0, `{"capacity_bytes":128,"flavor":"HVT","method":"M2","objective":"edp","alpha":0.5,"beta":0.5,"w":64,"timeout_ms":50}`},
		{1, `{"nr":32,"nc":64,"w":32,"flavor":"lvt","method":"m2"}`},
		{2, `{"capacity_bytes":1024,"flavor":"lvt","method":"m2"}`},
		{3, `{"flavor":"hvt","n":16,"seed":7,"metrics":["hsnm","wm"]}`},
		{0, ``},                                   // empty body
		{0, `{`},                                  // truncated JSON
		{0, `null`},                               // JSON null
		{0, `[]`},                                 // wrong top-level type
		{0, `{"capacity_bytes":128}{"x":1}`},      // trailing data
		{0, `{"capacity_bytes":-5}`},              // negative capacity
		{0, `{"capacity_bytes":1e30}`},            // overflow
		{0, `{"capacity_bytes":128,"bogus":1}`},   // unknown field
		{0, `{"capacity_bytes":128,"w":-1}`},      // invalid width
		{0, `{"capacity_bytes":128,"alpha":2}`},   // activity out of range
		{1, `{"nr":0,"nc":0}`},                    // degenerate geometry
		{1, `{"nr":32,"nc":64,"vddc":-3}`},        // implausible rail
		{3, `{"flavor":"hvt","n":1}`},             // too few samples
		{3, `{"flavor":"hvt","n":999999999}`},     // absurd sample count
		{3, `{"flavor":"hvt","metrics":["bad"]}`}, // unknown metric
		{0, `{"capacity_bytes":1024,"flavor":"lvt","objective":"padp","groups":8,"mux":4}`},
		{0, `{"capacity_bytes":1024,"flavor":"hvt","objective":"area"}`},
		{0, `{"capacity_bytes":128,"flavor":"hvt","groups":3}`},        // non-power-of-two groups
		{0, `{"capacity_bytes":128,"flavor":"hvt","w":64,"groups":8}`}, // groups exceed the tallest organization's rows
		{0, `{"capacity_bytes":128,"flavor":"hvt","mux":3}`},           // non-power-of-two mux
		{0, `{"capacity_bytes":128,"flavor":"hvt","mux":-2}`},          // negative mux
		{0, `{"capacity_bytes":1024,"flavor":"lvt","w":16,"mux":32}`},  // mux wider than the access width
		{1, `{"nr":32,"nc":64,"w":32,"flavor":"lvt","method":"m2","mux":2,"groups":4,"group_mask":5}`},
		{1, `{"nr":32,"nc":64,"w":32,"flavor":"lvt","method":"m2","group_mask":3}`}, // mask without groups
		{1, `{"nr":36,"nc":64,"w":32,"flavor":"lvt","method":"m2","groups":8}`},     // rows not divisible by groups
	}
	for _, s := range seeds {
		f.Add(s.which, []byte(s.body))
	}

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		path := paths[int(which)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a panic here is a fuzz failure

		res := rec.Result()
		defer res.Body.Close()
		if res.StatusCode == http.StatusOK {
			var v map[string]any
			if err := json.NewDecoder(res.Body).Decode(&v); err != nil {
				t.Fatalf("%s: 200 with unparseable body: %v", path, err)
			}
			return
		}
		if res.StatusCode < 400 || res.StatusCode > 599 {
			t.Fatalf("%s: unexpected status %d for body %q", path, res.StatusCode, body)
		}
		var env struct {
			Error struct {
				Status  int    `json:"status"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
			t.Fatalf("%s: status %d without structured envelope (body %q): %v",
				path, res.StatusCode, rec.Body.Bytes(), err)
		}
		if env.Error.Message == "" || env.Error.Status != res.StatusCode {
			t.Fatalf("%s: malformed envelope %+v for status %d", path, env.Error, res.StatusCode)
		}
	})
}

// FuzzDecodeBatch throws arbitrary NDJSON bodies at the /v1/batch decoder.
// The contract: decodeBatch never panics; it either rejects the whole batch
// with a 400 apiError or returns at least one item, and every returned item
// is internally consistent — op-tagged with exactly the matching request
// populated, and a canonical key that is stable under re-normalization.
func FuzzDecodeBatch(f *testing.F) {
	seeds := []string{
		`{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}`,
		`{"op":"evaluate","flavor":"hvt","nr":32,"nc":32,"npre":1,"nwr":1}`,
		`{"op":"pareto","capacity_bytes":1024,"flavor":"lvt","method":"m1"}`,
		"{\"op\":\"optimize\",\"capacity_bytes\":128,\"flavor\":\"HVT\",\"timeout_ms\":50}\n\n{\"op\":\"evaluate\",\"flavor\":\"lvt\",\"nr\":16,\"nc\":16,\"npre\":1,\"nwr\":1}",
		"",
		"\n\n",
		"nope",
		`{"op":"optimize"`,
		`{"op":""}`,
		`{"op":"yield","flavor":"hvt"}`,
		`{"capacity_bytes":128,"flavor":"hvt"}`,
		`{"op":"optimize","capacity_bytes":-1}`,
		`{"op":"optimize","capacity_bytes":128,"flavor":"hvt","bogus":true}`,
		`{"op":"evaluate","nr":0,"nc":0}`,
		"{\"op\":\"optimize\",\"capacity_bytes\":128,\"flavor\":\"hvt\"}\nnull",
		`{"op":3}`,
		`{"op":"optimize","capacity_bytes":1024,"flavor":"lvt","objective":"padp","groups":4,"mux":2}`,
		`{"op":"evaluate","flavor":"lvt","nr":32,"nc":32,"npre":1,"nwr":1,"groups":2,"group_mask":1,"mux":2}`,
		`{"op":"optimize","capacity_bytes":128,"flavor":"hvt","groups":3}`,
		`{"op":"evaluate","flavor":"lvt","nr":32,"nc":32,"npre":1,"nwr":1,"group_mask":7}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		items, aerr := decodeBatch(bytes.NewReader(body)) // a panic here is a fuzz failure
		if aerr != nil {
			if aerr.Status != http.StatusBadRequest || aerr.Message == "" {
				t.Fatalf("decode error = %+v, want populated 400", aerr)
			}
			return
		}
		if len(items) == 0 {
			t.Fatal("nil error with zero items")
		}
		for i, it := range items {
			switch it.op {
			case "optimize", "pareto":
				if it.opt == nil || it.ev != nil {
					t.Fatalf("item %d: op %q with wrong request population", i, it.op)
				}
				if it.opt.TimeoutMS != 0 {
					t.Fatalf("item %d: per-item deadline survived decode", i)
				}
				req := *it.opt
				if aerr := req.normalize(); aerr != nil || req.key(it.op) != it.key() {
					t.Fatalf("item %d: key not stable under re-normalization (%v)", i, aerr)
				}
			case "evaluate":
				if it.ev == nil || it.opt != nil {
					t.Fatalf("item %d: op %q with wrong request population", i, it.op)
				}
				req := *it.ev
				if aerr := req.normalize(); aerr != nil || req.key() != it.key() {
					t.Fatalf("item %d: key not stable under re-normalization (%v)", i, aerr)
				}
			default:
				t.Fatalf("item %d: unexpected op %q", i, it.op)
			}
		}
	})
}
