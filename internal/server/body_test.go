package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// post drives one POST through the daemon's handler in-process.
func post(srv *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// statusOf reads /status, which must answer 200 whatever was posted.
func statusOf(t *testing.T, srv *Server) StatusResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	var st StatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("GET /status: code %d, decode %v", rec.Code, err)
	}
	return st
}

// A POST body is one JSON value of bounded size: bytes after the value and
// a megabyte of padding are refused before anything is admitted or
// reconfigured, where both used to be read to the end and acted on.
func TestPostBodyIsOneBoundedValue(t *testing.T) {
	pad := strings.Repeat("x", 1<<20)
	for _, c := range []struct{ path, value, padded string }{
		{"/jobs", `{"workload":"canneal"}`, `{"workload":"canneal","pad":"` + pad + `"}`},
		{"/goal", `{"fairness":"one-minus-cov"}`, `{"fairness":"one-minus-cov","pad":"` + pad + `"}`},
	} {
		srv := newTestServer(t, nil, 0)
		before := statusOf(t, srv)
		for name, body := range map[string]string{
			"trailing bytes":  c.value + " trailing",
			"a second value":  c.value + c.value,
			"a 1 MiB body":    c.padded,
			"nothing at all":  "",
			"a closing brace": c.value + "}",
		} {
			if rec := post(srv, c.path, body); rec.Code < 400 || rec.Code > 499 {
				t.Errorf("POST %s with %s: status %d, want a 4xx", c.path, name, rec.Code)
			}
		}
		if after := statusOf(t, srv); len(after.Jobs) != len(before.Jobs) || after.Fairness != before.Fairness {
			t.Errorf("POST %s: refused bodies still took effect: %d jobs scored by %s, were %d by %s",
				c.path, len(after.Jobs), after.Fairness, len(before.Jobs), before.Fairness)
		}
		if rec := post(srv, c.path, c.value+"\n \t"); rec.Code != http.StatusOK {
			t.Errorf("POST %s with the value and trailing whitespace: status %d (%s)", c.path, rec.Code, rec.Body)
		}
		if after := statusOf(t, srv); len(after.Jobs) == len(before.Jobs) && after.Fairness == before.Fairness {
			t.Errorf("POST %s: the accepted body changed nothing", c.path)
		}
	}
}

// FuzzAddJobBody: whatever bytes arrive on POST /jobs, the daemon does not
// panic, and when it reports success the job set it reports is the one
// /status then shows.
func FuzzAddJobBody(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"canneal"}`, `{"workload":"canneal"} trailing`, `{"workload":"memcached-lc"}` + "\n",
		`{"workload":"nope"}`, `{"workload":7}`, `{"workload":"canneal","x":[1,{"y":null}]}`,
		`[]`, `null`, `"canneal"`, `{`, ``, `{"workload":"canneal"}{"workload":"vips"}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		srv := newTestServer(t, nil, 0)
		rec := post(srv, "/jobs", body)
		st := statusOf(t, srv)
		if rec.Code/100 != 2 {
			if len(st.Jobs) != 3 {
				t.Fatalf("POST /jobs %q: status %d, yet %d jobs run", body, rec.Code, len(st.Jobs))
			}
			return
		}
		var resp struct {
			Jobs []string `json:"jobs"`
			Slot int      `json:"slot"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("POST /jobs %q: 200 with an unreadable answer: %v", body, err)
		}
		if len(resp.Jobs) != 4 || resp.Slot != 3 || len(st.Jobs) != len(resp.Jobs) {
			t.Fatalf("POST /jobs %q: reported jobs %v in slot %d, /status lists %v", body, resp.Jobs, resp.Slot, st.Jobs)
		}
	})
}

// FuzzGoalBody: the same for POST /goal — no panic, the job set is never
// touched, and a reported goal is the goal /status then shows.
func FuzzGoalBody(f *testing.F) {
	for _, seed := range []string{
		`{"throughput":"geomean"}`, `{"fairness":"one-minus-cov"}`, `{"throughput":"p99","fairness":"slo-attainment"}`,
		`{"throughput":"geomean"} trailing`, `{"throughput":"nope"}`, `{"fairness":3}`, `{}`, `null`, `[`, ``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		srv := newTestServer(t, nil, 0)
		before := statusOf(t, srv)
		rec := post(srv, "/goal", body)
		st := statusOf(t, srv)
		if len(st.Jobs) != 3 {
			t.Fatalf("POST /goal %q: %d jobs run afterwards", body, len(st.Jobs))
		}
		if rec.Code/100 != 2 {
			if st.Throughput != before.Throughput || st.Fairness != before.Fairness {
				t.Fatalf("POST /goal %q: status %d, yet the goal moved to %s + %s", body, rec.Code, st.Throughput, st.Fairness)
			}
			return
		}
		var resp map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("POST /goal %q: 200 with an unreadable answer: %v", body, err)
		}
		if resp["throughput"] != st.Throughput || resp["fairness"] != st.Fairness {
			t.Fatalf("POST /goal %q: reported %v, /status shows %s + %s", body, resp, st.Throughput, st.Fairness)
		}
	})
}
