package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pathology"
	"repro/internal/sched"
)

// TestMetricsLabelCardinality: the series /metrics exposes depend on the
// configuration, not on the traffic. Two rounds of 20 and then 200 distinct
// unknown tokens, unknown job and matrix IDs, bad bodies and uploads leave
// the same set of series names, and no label value carries a token, an ID
// or a raw request path.
func TestMetricsLabelCardinality(t *testing.T) {
	cfg := testTenants(t, `{"tenants": [
		{"name": "acme", "token": "tok-acme"},
		{"name": "globex", "token": "tok-globex"}
	]}`)
	reg := metrics.NewRegistry()
	_, _, ts := newTestServer(t, sched.Config{Devices: 1, Registry: reg},
		Options{Store: testStoreAt(t, t.TempDir()), Tenants: cfg, Registry: reg})

	do := func(method, path, token, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	// Every token, ID and path a round sends; none may show up in a label.
	var sent []string
	round := func(n, base int) {
		for i := base; i < base+n; i++ {
			token := fmt.Sprintf("tok-unknown-%d", i)
			if code, body := do(http.MethodGet, "/datasets", token, ""); code != http.StatusOK {
				t.Fatalf("GET /datasets with an unknown token = %d: %s", code, body)
			}
			jobPath := fmt.Sprintf("/jobs/job-%06d", 900000+i)
			matrixPath := fmt.Sprintf("/matrix/matrix-unknown-%d", i)
			for _, path := range []string{jobPath, matrixPath} {
				if code, body := do(http.MethodGet, path, "", ""); code != http.StatusNotFound {
					t.Fatalf("GET %s = %d, want 404: %s", path, code, body)
				}
			}
			for _, path := range []string{"/jobs", "/matrix"} {
				bad := fmt.Sprintf(`{"bogus_%d": 1}`, i)
				if code, body := do(http.MethodPost, path, "", bad); code != http.StatusBadRequest {
					t.Fatalf("POST %s %s = %d, want 400: %s", path, bad, code, body)
				}
			}
			owner := []string{"tok-acme", "tok-globex", token}[i%3]
			d := datasetPayload(t, pathology.Generate(qosSpec(fmt.Sprintf("card-%d", i), int64(1000+i), 1)))
			code, body := do(http.MethodPut, fmt.Sprintf("/datasets?name=card-%d", i), owner, string(d))
			if code != http.StatusOK {
				t.Fatalf("upload %d = %d: %s", i, code, body)
			}
			var man DatasetResponse
			if err := json.Unmarshal(body, &man); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, token, jobPath, matrixPath, man.ID, fmt.Sprintf("card-%d", i))
		}
	}
	scrape := func() []string {
		t.Helper()
		code, body := do(http.MethodGet, "/metrics", "", "")
		if code != http.StatusOK {
			t.Fatalf("GET /metrics = %d", code)
		}
		var names []string
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			name := line[:strings.LastIndexByte(line, ' ')]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				for _, s := range sent {
					if strings.Contains(name[i:], s) {
						t.Errorf("series %s carries the request value %q", name, s)
					}
				}
			}
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}

	scrape() // a scrape is traffic too: its own route's series start here
	round(20, 0)
	first := scrape()
	round(200, 20)
	second := scrape()
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatalf("series names changed with traffic:\nafter 20 of each:\n%s\n\nafter 200 more:\n%s",
			strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
}
