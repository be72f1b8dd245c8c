package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sramco"
)

// fuzzServer builds a Server whose heavy compute functions are replaced by
// canned results from one real tiny run each, so the fuzzer exercises the
// full decode → normalize → canonical-key → lookup → fill path at decoder
// speed. The /v1/evaluate path stays fully real (a single model evaluation
// is microseconds).
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	fw := framework(f)
	s := New(fw, Config{})

	oreq := OptimizeRequest{CapacityBytes: 128, Flavor: "hvt"}
	if aerr := oreq.normalize(); aerr != nil {
		f.Fatalf("seed optimize request: %v", aerr)
	}
	opt, err := fw.Optimize(context.Background(), oreq.opts)
	if err != nil {
		f.Fatalf("seed optimize: %v", err)
	}
	pareto, err := fw.Pareto(context.Background(), oreq.opts)
	if err != nil {
		f.Fatalf("seed pareto: %v", err)
	}
	yreq := YieldRequest{Flavor: "hvt", N: 16}
	if aerr := yreq.normalize(); aerr != nil {
		f.Fatalf("seed yield request: %v", aerr)
	}
	yres, err := sramco.MonteCarloYield(context.Background(), yreq.cfg, nil)
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

// oracleKey formats a normalized request's cache key with the fmt formats
// the keys were written with before keyBuf. A key is also a catalog key, so
// keyBuf must write the same bytes for every request an endpoint accepts.
func oracleKey(req request, o *op) string {
	switch r := req.(type) {
	case *OptimizeRequest:
		return fmt.Sprintf("%s|cap=%d|flavor=%s|method=%s|obj=%s|dwl=%t|alpha=%g|beta=%g|w=%d|groups=%d|mux=%d",
			o.name, r.CapacityBytes, r.Flavor, r.Method, r.Objective, r.DWL, *r.Alpha, *r.Beta, r.W, r.Groups, r.Mux)
	case *EvaluateRequest:
		optF := func(v *float64) string {
			if v == nil {
				return "-"
			}
			return fmt.Sprintf("%g", *v)
		}
		return fmt.Sprintf("%s|flavor=%s|method=%s|geom=%dx%d:%d:%d:%d:%d|vddc=%s|vssc=%g|vwl=%s|alpha=%g|beta=%g|groups=%d|mask=%d|mux=%d",
			o.name, r.Flavor, r.Method, r.NR, r.NC, r.W, r.Npre, r.Nwr, r.WLSegs,
			optF(r.VDDC), r.VSSC, optF(r.VWL), *r.Alpha, *r.Beta, r.Groups, r.GroupMask, r.Mux)
	case *YieldRequest:
		return fmt.Sprintf("%s|flavor=%s|n=%d|seed=%d|sigma=%g|metrics=%s|sampler=%s|tilt=%g|relci=%g",
			o.name, r.Flavor, r.N, r.Seed, r.SigmaVt, strings.Join(r.Metrics, ","), r.Sampler, r.Tilt, r.RelCI)
	}
	panic(fmt.Sprintf("oracleKey: no key format for %T", req))
}

// FuzzDecodeRequest throws arbitrary bodies at every /v1/* endpoint. The
// contract under fuzz: the handler stack never panics, success responses are
// valid JSON, and every rejection is a structured error envelope with a
// 4xx/5xx status — malformed input must surface as a 400-class error, not a
// crash. Every body the endpoint accepts gets oracleKey's key.
func FuzzDecodeRequest(f *testing.F) {
	s := fuzzServer(f)
	h := s.Handler()

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
		{1, `{"flavor":"hvt","nr":64,"nc":64,"npre":1,"nwr":1,"wl_segs":-4}`},       // negative wordline segmentation
		// Keys of values %g writes in exponent form, with 17 digits or as -0.
		{0, `{"capacity_bytes":2048,"flavor":"lvt","dwl":true,"alpha":1e-7,"beta":0.30000000000000004,"w":16}`},
		{2, `{"capacity_bytes":128,"flavor":"hvt","alpha":0.000123456789,"beta":1}`},
		{1, `{"nr":32,"nc":64,"w":32,"npre":4,"nwr":2,"flavor":"lvt","vddc":1.0000001,"vssc":-0,"vwl":123456789012,"alpha":0}`},
		{1, `{"nr":16,"nc":16,"npre":1,"nwr":1,"flavor":"hvt","vssc":-1e-300,"beta":0.1}`},
		{3, `{"flavor":"lvt","n":16,"seed":-9223372036854775808,"sigma_vt":1e-21,"tilt":1.5,"rel_ci":0.05,"sampler":"sobol"}`},
	}
	for _, s := range seeds {
		f.Add(s.which, []byte(s.body))
	}

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		o := ops[int(which)%len(ops)]
		path := "/v1/" + o.name
		if req := o.newRequest(); decodeJSON(bytes.NewReader(body), req) == nil && req.normalize() == nil {
			if got, _, _ := req.call(s, o); got != oracleKey(req, o) {
				t.Fatalf("%s: key %q, oracle key %q", path, got, oracleKey(req, o))
			}
		}
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
// is a batch op of the table whose canonical key equals the key the same
// request gets on its own endpoint — the line without its op tag, decoded
// and normalized as that endpoint's body — and oracleKey's key, and no
// per-item deadline in the canonical request.
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
		"{\"op\":\"pareto\",\"capacity_bytes\":4096,\"flavor\":\"hvt\",\"alpha\":1e-7,\"beta\":0.9999999999999999}\r\n" +
			`{"op":"evaluate","flavor":"lvt","nr":64,"nc":16,"npre":2,"nwr":3,"vddc":0.55,"vssc":-0.000001,"vwl":1e21,"mux":1}`,
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
		var lines [][]byte
		for _, l := range bytes.Split(body, []byte("\n")) {
			if l = bytes.TrimSpace(l); len(l) > 0 {
				lines = append(lines, l)
			}
		}
		if len(lines) != len(items) {
			t.Fatalf("%d items from %d non-blank lines", len(items), len(lines))
		}
		for i, it := range items {
			if batchOp(it.op.name) != it.op {
				t.Fatalf("item %d: op %q is not a batch op of the table", i, it.op.name)
			}
			if o, ok := it.req.(*OptimizeRequest); ok && o.TimeoutMS != 0 {
				t.Fatalf("item %d: per-item deadline left in the canonical request", i)
			}
			req := it.op.newRequest()
			if aerr := decodeJSON(bytes.NewReader(endpointBody(t, lines[i])), req); aerr != nil {
				t.Fatalf("item %d: own endpoint rejects the line: %s", i, aerr.Message)
			}
			if aerr := req.normalize(); aerr != nil {
				t.Fatalf("item %d: own endpoint rejects the line: %s", i, aerr.Message)
			}
			got, _, _ := it.req.call(nil, it.op)
			want, _, _ := req.call(nil, it.op)
			if got != want {
				t.Fatalf("item %d: batch key %q, own endpoint key %q", i, got, want)
			}
			if oracle := oracleKey(it.req, it.op); got != oracle {
				t.Fatalf("item %d: key %q, oracle key %q", i, got, oracle)
			}
		}
	})
}

// endpointBody returns a batch line as its op's own endpoint receives it:
// the same members in the same order, without the op tag (in any letter
// case, as the decoder matches it).
func endpointBody(t *testing.T, line []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	out := []byte{'{'}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		if strings.EqualFold(k.(string), "op") {
			continue
		}
		if len(out) > 1 {
			out = append(out, ',')
		}
		kb, _ := json.Marshal(k)
		out = append(append(append(out, kb...), ':'), v...)
	}
	return append(out, '}')
}
