package remote_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"singlingout/internal/query/remote"
)

// postRaw POSTs body to the exact backend and returns the status and the
// refusal code ("" on success).
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query/exact", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var er remote.ErrorResponse
	if err := json.Unmarshal(payload, &er); err != nil {
		t.Fatalf("undecodable refusal %q: %v", payload, err)
	}
	return resp.StatusCode, er.Err.Code
}

// TestQueryBodyGrammar: the server answers the bodies clients write, with
// JSON whitespace anywhere, and refuses everything outside the strict
// grammar as bad_request.
func TestQueryBodyGrammar(t *testing.T) {
	_, ts := newTestServer(t, remote.ServerConfig{Seed: 43})
	for _, body := range []string{
		`{"v":2,"analyst":"a","queries":[[0,1],[2]]}`,
		`{"v":2,"queries":[[3,2,1]]}`,
		`{"queries":[[1]],"v":2}`,
		" {\"v\" : 2 ,\n\"queries\" : [ [ 1 ] , null , [ ] ] }\n",
		`{"v":2,"analyst":"café \"x\"","queries":[]}`,
	} {
		if status, code := postRaw(t, ts.URL, body); status != http.StatusOK {
			t.Errorf("%s: status %d %s, want 200", body, status, code)
		}
	}
	for _, body := range []string{
		``,
		`null`,
		`{"v":2,"queries":[[1]]`,
		`{"v":2,"queries":[[1]]}{}`,
		`{"v":2,"queries":[[1]]} x`,
		`{"v":2,"queries":[[1]],"extra":0}`,
		`{"V":2,"queries":[[1]]}`,
		`{"v":2,"Queries":[[1]]}`,
		`{"v":2,"v":2,"queries":[[1]]}`,
		`{"v":2.0,"queries":[[1]]}`,
		`{"v":"2","queries":[[1]]}`,
		`{"v":2,"queries":[[1.0]]}`,
		`{"v":2,"queries":[[1e0]]}`,
		`{"v":2,"queries":[[01]]}`,
		`{"v":2,"queries":[[null]]}`,
		`{"v":2,"queries":[[99999999999999999999]]}`,
		`{"v":2,"analyst":null,"queries":[[1]]}`,
		`{"v":2,"queries":[[[1]]]}`,
	} {
		if status, code := postRaw(t, ts.URL, body); status != http.StatusBadRequest || code != remote.CodeBadRequest {
			t.Errorf("%q: status %d %q, want 400 %q", body, status, code, remote.CodeBadRequest)
		}
	}
}

// TestMaxBatchRefusedWhileDecoding: a batch over max_batch is refused as
// bad_request however long it is, before admission control; a wrong
// version written ahead of the queries is still refused as
// unsupported_version.
func TestMaxBatchRefusedWhileDecoding(t *testing.T) {
	_, ts := newTestServer(t, remote.ServerConfig{Seed: 47, MaxBatch: 4})
	batch := func(queries int) string {
		return "[" + strings.TrimSuffix(strings.Repeat("[0],", queries), ",") + "]"
	}
	for _, tc := range []struct {
		body   string
		status int
		code   string
	}{
		{`{"v":2,"queries":` + batch(4) + `}`, http.StatusOK, ""},
		{`{"v":2,"queries":` + batch(5) + `}`, http.StatusBadRequest, remote.CodeBadRequest},
		{`{"v":2,"queries":` + batch(200_000) + `}`, http.StatusBadRequest, remote.CodeBadRequest},
		{`{"v":1,"queries":` + batch(5) + `}`, http.StatusBadRequest, remote.CodeUnsupportedVersion},
		{`{"queries":` + batch(5) + `,"v":2}`, http.StatusBadRequest, remote.CodeBadRequest},
		{`{"v":1,"queries":` + batch(4) + `}`, http.StatusBadRequest, remote.CodeUnsupportedVersion},
	} {
		if status, code := postRaw(t, ts.URL, tc.body); status != tc.status || code != tc.code {
			t.Errorf("%.40s…: status %d %q, want %d %q", tc.body, status, code, tc.status, tc.code)
		}
	}
}
