package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// postRaw sends body verbatim, bypassing json.Marshal so malformed and
// non-JSON payloads reach the handler unmodified.
func postRaw(t testing.TB, client *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, buf.Bytes()
}

// requireJSONError asserts the 400-contract: the given status, a JSON
// content type, and a decodable {"error": ...} body with a message.
func requireJSONError(t *testing.T, resp *http.Response, body []byte, wantStatus int) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q, want application/json", ct)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, body)
	}
	if e.Error == "" {
		t.Fatalf("error body has empty message: %s", body)
	}
}

// TestMalformedBodies drives every query and mutation endpoint with the
// malformed payloads a public listener actually receives: syntactically
// broken JSON, wrong-typed fields, out-of-range numbers (1e999 overflows
// float64), non-finite coordinates, and dimensionality mismatches. Each
// must produce 400 with a JSON error body — never a 500, never a hang.
func TestMalformedBodies(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	client := ts.Client()

	endpoints := []string{"/v1/nn", "/v1/knn", "/v1/candidates", "/v1/insert"}
	batchEndpoints := []string{"/v1/nn/batch", "/v1/knn/batch", "/v1/candidates/batch", "/v1/insert/batch"}

	pointBodies := []struct {
		name string
		body string
	}{
		{"garbage", `this is not json`},
		{"empty body", ``},
		{"wrong type", `{"point":"0.1,0.2,0.3"}`},
		{"number overflow", `{"point":[1e999,0.2,0.3]}`},
		{"json NaN literal", `{"point":[NaN,0.2,0.3]}`},
		{"missing point", `{}`},
		{"too few dims", `{"point":[0.1,0.2]}`},
		{"too many dims", `{"point":[0.1,0.2,0.3,0.4]}`},
	}
	for _, ep := range endpoints {
		for _, tc := range pointBodies {
			t.Run(ep+"/"+tc.name, func(t *testing.T) {
				resp, body := postRaw(t, client, ts.URL+ep, tc.body)
				requireJSONError(t, resp, body, http.StatusBadRequest)
			})
		}
	}

	batchBodies := []struct {
		name string
		body string
	}{
		{"garbage", `[[0.1,0.2,0.3]`},
		{"empty batch", `{"points":[]}`},
		{"missing points", `{}`},
		{"dim mismatch", `{"points":[[0.1,0.2,0.3],[0.1,0.2]]}`},
		{"number overflow", `{"points":[[1e999,0.2,0.3]]}`},
		{"wrong element type", `{"points":["a","b"]}`},
	}
	for _, ep := range batchEndpoints {
		for _, tc := range batchBodies {
			t.Run(ep+"/"+tc.name, func(t *testing.T) {
				resp, body := postRaw(t, client, ts.URL+ep, tc.body)
				requireJSONError(t, resp, body, http.StatusBadRequest)
			})
		}
	}

	// Non-finite coordinates can only arrive through the GET form, where
	// strconv.ParseFloat happily produces NaN and ±Inf.
	for _, raw := range []string{"nan,0.2,0.3", "+inf,0.2,0.3", "-inf,0.2,0.3", "0.1,nan,0.3"} {
		for _, ep := range []string{"/v1/nn", "/v1/knn", "/v1/candidates"} {
			t.Run(ep+"/get "+raw, func(t *testing.T) {
				resp, err := client.Get(ts.URL + ep + "?point=" + raw)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				requireJSONError(t, resp, buf.Bytes(), http.StatusBadRequest)
			})
		}
	}

	// Bad k: non-numeric in the GET form, negative and over-limit in JSON.
	for _, tc := range []struct {
		name string
		do   func() (*http.Response, []byte)
	}{
		{"knn get k=abc", func() (*http.Response, []byte) {
			resp, err := client.Get(ts.URL + "/v1/knn?point=0.1,0.2,0.3&k=abc")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			return resp, buf.Bytes()
		}},
		{"knn post k=-1", func() (*http.Response, []byte) {
			return postRaw(t, client, ts.URL+"/v1/knn", `{"point":[0.1,0.2,0.3],"k":-1}`)
		}},
		{"knn post k over max", func() (*http.Response, []byte) {
			return postRaw(t, client, ts.URL+"/v1/knn", `{"point":[0.1,0.2,0.3],"k":100000}`)
		}},
		{"knn batch k=-2", func() (*http.Response, []byte) {
			return postRaw(t, client, ts.URL+"/v1/knn/batch", `{"points":[[0.1,0.2,0.3]],"k":-2}`)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := tc.do()
			requireJSONError(t, resp, body, http.StatusBadRequest)
		})
	}
}

// TestEmptyIndexNotFound proves the ErrEmpty -> 404 mapping: querying an
// index whose points have all been deleted is a well-formed request for
// something that does not exist, not a server failure (503).
func TestEmptyIndexNotFound(t *testing.T) {
	_, ts, pts := newTestServer(t, Config{})
	client := ts.Client()
	for id := range pts {
		resp, body := postJSON(t, client, ts.URL+"/v1/delete", struct {
			ID int `json:"id"`
		}{id})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete %d: status %d: %s", id, resp.StatusCode, body)
		}
	}
	for _, ep := range []string{"/v1/nn", "/v1/knn"} {
		resp, body := postRaw(t, client, ts.URL+ep, `{"point":[0.1,0.2,0.3]}`)
		requireJSONError(t, resp, body, http.StatusNotFound)
	}
}
