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
// grammar as bad_request. The server holds 32 records, so a query is a
// 4-byte bitmap, 8 base64 characters.
func TestQueryBodyGrammar(t *testing.T) {
	_, ts := newTestServer(t, remote.ServerConfig{Seed: 43})
	for _, body := range []string{
		`{"v":3,"analyst":"a","queries":["AwAAAA==","BAAAAA=="]}`, // {0,1}, {2}
		`{"v":3,"queries":["DgAAAA=="]}`,                          // {1,2,3}
		`{"queries":["AgAAAA=="],"v":3}`,
		" {\"v\" : 3 ,\n\"queries\" : [ \"AgAAAA==\" , \"AAAAAA==\" ] }\n",
		`{"v":3,"analyst":"café \"x\"","queries":[]}`,
		`{"v":3,"queries":null}`,
	} {
		if status, code := postRaw(t, ts.URL, body); status != http.StatusOK {
			t.Errorf("%s: status %d %s, want 200", body, status, code)
		}
	}
	for _, body := range []string{
		``,
		`null`,
		`{"v":3,"queries":["AgAAAA=="]`,
		`{"v":3,"queries":["AgAAAA=="]}{}`,
		`{"v":3,"queries":["AgAAAA=="]} x`,
		`{"v":3,"queries":["AgAAAA=="],"extra":0}`,
		`{"V":3,"queries":["AgAAAA=="]}`,
		`{"v":3,"Queries":["AgAAAA=="]}`,
		`{"v":3,"v":3,"queries":["AgAAAA=="]}`,
		`{"v":3.0,"queries":["AgAAAA=="]}`,
		`{"v":"3","queries":["AgAAAA=="]}`,
		`{"v":3,"analyst":null,"queries":["AgAAAA=="]}`,
		`{"v":3,"queries":[null]}`,
		`{"v":3,"queries":[[1]]}`,
		`{"v":3,"queries":[["AgAAAA=="]]}`,
		`{"v":3,"queries":["AgAAAA==" "AgAAAA=="]}`,
		`{"v":3,"queries":["AgAAAA==",]}`,
		`{"v":3,"queries":["AgAA\r\nAA=="]}`, // base64 would skip the escaped CR LF
		`{"v":3,"queries":["\u0041gAAAA=="]}`,
		`{"v":3,"queries":["AgAAAA-_"]}`, // the URL-safe alphabet
		`{"v":3,"queries":["AgAAAB=="]}`, // nonzero padding bits
		`{"v":3,"queries":["A=AAAA=="]}`,
	} {
		if status, code := postRaw(t, ts.URL, body); status != http.StatusBadRequest || code != remote.CodeBadRequest {
			t.Errorf("%q: status %d %q, want 400 %q", body, status, code, remote.CodeBadRequest)
		}
	}
}

// TestBitmapRefusedAsInvalidQuery: at n = 37 a query is a 5-byte bitmap
// whose bits 37 to 39 are clear. A shorter or longer bitmap, or one
// setting a bit at or above n, is refused as invalid_query before any
// budget moves, though the same batch holds a valid fresh query.
func TestBitmapRefusedAsInvalidQuery(t *testing.T) {
	srv, ts := newTestServer(t, remote.ServerConfig{Seed: 59, N: 37, Budget: 10})
	body := func(q string) string {
		return `{"v":3,"analyst":"mallory","queries":["AQAAAAA=","` + q + `"]}` // {0}, then q
	}
	for _, tc := range []struct{ name, query, msg string }{
		{"3 bytes", "AAAA", "4 base64 bytes, want 8"},
		{"4 bytes", "AAAAAA==", "4-byte bitmap, want 5"},
		{"6 bytes", "AAAAAAAA", "6-byte bitmap, want 5"},
		{"8 bytes", "AAAAAAAAAAA=", "12 base64 bytes, want 8"},
		{"bit 37", "AAAAACA=", "index 37 outside"},
		{"bit 39", "AAAAAIA=", "index 39 outside"},
	} {
		resp, err := http.Post(ts.URL+"/v1/query/exact", "application/json", strings.NewReader(body(tc.query)))
		if err != nil {
			t.Fatal(err)
		}
		var er remote.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || er.Err.Code != remote.CodeInvalidQuery || !strings.Contains(er.Err.Message, "query 1: "+tc.msg) {
			t.Errorf("%s: status %d %+v (%v), want 400 %q naming query 1: %s", tc.name, resp.StatusCode, er.Err, err, remote.CodeInvalidQuery, tc.msg)
		}
	}
	if entries, totals := srv.Ledger(""); len(entries) != 0 || totals["mallory"] != 0 || srv.CacheLen() != 0 {
		t.Fatalf("refused batches left ledger %+v, totals %v and %d cached answers", entries, totals, srv.CacheLen())
	}
	// The last index, 36, is in range.
	if status, code := postRaw(t, ts.URL, body("AAAAABA=")); status != http.StatusOK || srv.BudgetSpent("mallory") != 2 {
		t.Fatalf("{0} and {36}: status %d %q, spent %d; want 200 and 2", status, code, srv.BudgetSpent("mallory"))
	}
}

// TestMaxBatchRefusedWhileDecoding: a batch over max_batch is refused as
// bad_request however long it is, before admission control; a wrong
// version written ahead of the queries is refused as unsupported_version.
func TestMaxBatchRefusedWhileDecoding(t *testing.T) {
	_, ts := newTestServer(t, remote.ServerConfig{Seed: 47, MaxBatch: 4})
	batch := func(queries int) string {
		return "[" + strings.TrimSuffix(strings.Repeat(`"AQAAAA==",`, queries), ",") + "]"
	}
	for _, tc := range []struct {
		body   string
		status int
		code   string
	}{
		{`{"v":3,"queries":` + batch(4) + `}`, http.StatusOK, ""},
		{`{"v":3,"queries":` + batch(5) + `}`, http.StatusBadRequest, remote.CodeBadRequest},
		{`{"v":3,"queries":` + batch(200_000) + `}`, http.StatusBadRequest, remote.CodeBadRequest},
		{`{"v":1,"queries":` + batch(5) + `}`, http.StatusBadRequest, remote.CodeUnsupportedVersion},
		{`{"queries":` + batch(5) + `,"v":3}`, http.StatusBadRequest, remote.CodeBadRequest},
		{`{"v":1,"queries":` + batch(4) + `}`, http.StatusBadRequest, remote.CodeUnsupportedVersion},
	} {
		if status, code := postRaw(t, ts.URL, tc.body); status != tc.status || code != tc.code {
			t.Errorf("%.40s…: status %d %q, want %d %q", tc.body, status, code, tc.status, tc.code)
		}
	}
}
