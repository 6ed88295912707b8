package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"singlingout/internal/query"
)

// fuzzN is the dataset size FuzzDecodeQueryRequest decodes against: a
// bitmap is 5 bytes, 8 base64 characters, and bits 37 to 39 of its last
// byte must be clear.
const fuzzN = 37

// FuzzDecodeQueryRequest checks the request codec against encoding/json,
// which it replaces on the query path. Whatever the strict decoder
// accepts, encoding/json decodes to a deeply equal request (nil and
// empty slices told apart); it may refuse more. Every accepted query is
// a bitmap over fuzzN records, which the server's expansion and the
// client's encoding carry back to itself. For index lists built from the
// same bytes, the client refuses exactly the lists query.ValidateQuery
// refuses, with its message; otherwise it writes json.Marshal's bytes,
// which the decoder reads back as encoding/json does, and which expand
// to the sorted lists.
func FuzzDecodeQueryRequest(f *testing.F) {
	marshal := func(analyst string, sets ...[]int) []byte {
		qs, err := bitmaps(fuzzN, sets)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(QueryRequest{V: V, Analyst: analyst, Queries: qs})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	canonical := marshal("analyst0", []int{0, 3, 17}, []int{5}, []int{36}, nil)
	for _, seed := range [][]byte{
		canonical,
		marshal(`a<b&"c"`, []int{1}),
		marshal("é", []int{1}),
		marshal("bad\xffutf8", []int{1}),
		[]byte(`{"v":3,"queries":null}`),
		[]byte(`{"v":3,"queries":[null,"AQAAAAA="]}`),
		[]byte(`{"v":3,"queries":[]}`),
		[]byte(`{"v":3,"queries":[""]}`),
		[]byte(`{"v":3,"queries":["AAAA","AAAAAA==","AAAAAAAA","AAAAAAAAAAA="]}`), // 3, 4, 6 and 8 bytes
		[]byte(`{"v":3,"queries":["AAAAACA=","AAAAAIA=","/////x8="]}`),            // bits 37 and 39; all 37
		[]byte(`{"v":3,"queries":["AAAAAAB="]}`),                                  // nonzero padding bits
		[]byte(`{"v":3,"queries":["AAAA\r\nAAA=","\u0041AAAAAA="]}`),
		[]byte(`{"v":3,"queries":["-_AAAAA=","AAAAAAA"]}`),
		[]byte(`{"v":2,"queries":[[0,3]]}`),
		[]byte(`{"queries":["AAAAAAA="],"v":3}`),
		[]byte(`{"queries":["AAAAAAA="]}`),
		[]byte(`{"v":03,"queries":[]}`),
		[]byte(`{"v":3.0,"queries":[]}`),
		[]byte(`{"v":3,"extra":1,"queries":[]}`),
		[]byte(`{"V":3,"queries":[]}`),
		[]byte(`{"v":3,"v":3,"queries":[]}`),
		[]byte(`{"v":3,"queries":["AAAAAAA="]}{}`),
		[]byte(" {\"v\" : 3 ,\t\"queries\" : [ \"AAAAAAA=\" , \"AQAAAAA=\" ] }\r\n"),
		canonical[:len(canonical)/2],
		// Index lists for the client half: {0,1,4}, {15}, {36}; a
		// repeated 0; 37 and -1, out of range.
		{1, 2, 5, 0, 16, 0, 37},
		{1, 1},
		{38},
		{39},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := decodeQueryRequest(data, math.MaxInt, fuzzN); err == nil {
			var want QueryRequest
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
				t.Fatalf("decoder accepts %q, encoding/json refuses it: %v", data, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoding %q: got %#v, encoding/json %#v", data, got, want)
			}
			if got.V != V {
				t.Fatalf("decoder accepts %q of version %d", data, got.V)
			}
			for i, q := range got.Queries {
				if len(q) != 5 || q[4]>>5 != 0 {
					t.Fatalf("query %d of %q: accepted bitmap %x", i, data, q)
				}
			}
			back, err := bitmaps(fuzzN, indices(got.Queries))
			if err != nil || !slices.EqualFunc(back, got.Queries, bytes.Equal) {
				t.Fatalf("queries of %q expand and encode to %x (%v), want %x", data, back, err, got.Queries)
			}
		}

		analyst, sets := requestFrom(data)
		var wantErr error
		for i, q := range sets {
			if err := query.ValidateQuery(fuzzN, q); err != nil {
				wantErr = fmt.Errorf("remote: query %d: %w", i, err)
				break
			}
		}
		qs, err := bitmaps(fuzzN, sets)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err != nil) != errors.Is(err, query.ErrInvalidQuery) {
			t.Fatalf("bitmaps of %v: err %v, want %v", sets, err, wantErr)
		}
		if err != nil {
			return
		}
		req := QueryRequest{V: V, Analyst: analyst, Queries: qs}
		enc := appendQueryRequest(nil, req)
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("encoding %#v:\n got %s\nwant %s", req, enc, want)
		}
		back, err := decodeQueryRequest(enc, math.MaxInt, fuzzN)
		if err != nil {
			t.Fatalf("decoder refuses the client's body %s: %v", enc, err)
		}
		// encoding/json, not req, is the reference: an analyst with
		// invalid UTF-8 comes back with U+FFFD in its place.
		var viaJSON QueryRequest
		if err := json.Unmarshal(want, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, viaJSON) {
			t.Fatalf("round trip of %s: got %#v, want %#v", enc, back, viaJSON)
		}
		for i, got := range indices(back.Queries) {
			if sorted := sortedCopy(sets[i]); !slices.Equal(got, sorted) {
				t.Fatalf("query %d of %s expands to %v, want %v", i, enc, got, sorted)
			}
		}
	})
}

// sortedCopy returns q's indices in increasing order.
func sortedCopy(q []int) []int {
	s := append([]int(nil), q...)
	slices.Sort(s)
	return s
}

// requestFrom builds an analyst and index lists from fuzz bytes: the
// bytes themselves are the analyst, a 0 byte closes the current list,
// and every other byte c adds the index c%39 - 1, from -1 to 37, so
// lists run out of [0, fuzzN) or repeat an index now and then.
func requestFrom(data []byte) (string, [][]int) {
	var sets [][]int
	var q []int
	for _, c := range data {
		if c == 0 {
			sets, q = append(sets, q), nil
			continue
		}
		q = append(q, int(c)%(fuzzN+2)-1)
	}
	return string(data), append(sets, q)
}

// TestDecodeStopsAtBatchLimit: a body longer than max_batch is refused at
// query max_batch+1, so refusing a 100k-query body takes the same few
// allocations as refusing a 1k-query one. A wrong version written before
// the queries is still reported as one.
func TestDecodeStopsAtBatchLimit(t *testing.T) {
	const n = 8 // one-byte bitmaps
	body := func(head string, queries int, tail string) []byte {
		b := []byte(`{` + head + `"queries":[`)
		for i := 0; i < queries; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `"AQ=="`...)
		}
		return append(b, "]"+tail+"}"...)
	}
	for _, tc := range []struct {
		body []byte
		code string
	}{
		{body(`"v":3,`, 100_000, ""), CodeBadRequest},
		{body(`"v":3,`, 9, ""), CodeBadRequest},
		{body(`"v":1,`, 9, ""), CodeUnsupportedVersion},
		{body("", 9, `,"v":1`), CodeBadRequest},
	} {
		_, err := decodeQueryRequest(tc.body, 8, n)
		var ref *refusal
		if !errors.As(err, &ref) || ref.code != tc.code {
			t.Errorf("%.30s…: err %v, want a %s refusal", tc.body, err, tc.code)
		}
		if tc.code == CodeBadRequest && !strings.Contains(err.Error(), "max_batch 8") {
			t.Errorf("%.30s…: message %q does not name max_batch 8", tc.body, err)
		}
	}
	if req, err := decodeQueryRequest(body(`"v":3,`, 8, ""), 8, n); err != nil || len(req.Queries) != 8 {
		t.Fatalf("a batch of exactly max_batch: %d queries, err %v", len(req.Queries), err)
	}

	allocs := func(queries int) float64 {
		b := body(`"v":3,`, queries, "")
		return testing.AllocsPerRun(20, func() { _, _ = decodeQueryRequest(b, 8, n) })
	}
	// The bound, not equality: the race detector adds an allocation now
	// and then.
	small, large := allocs(1_000), allocs(100_000)
	if small > 32 || large > 32 {
		t.Fatalf("allocations to refuse a 1k-query body: %v, a 100k-query body: %v; want at most 32 for both", small, large)
	}
}

// TestQueryKeyCanonical: every order of a set gives one bitmap through
// the client encoder, which expands back to the sorted set, and distinct
// (backend, set) pairs get distinct cache keys.
func TestQueryKeyCanonical(t *testing.T) {
	const n = 37
	key := func(backend string, set ...int) string {
		qs, err := bitmaps(n, [][]int{set})
		if err != nil {
			t.Fatal(err)
		}
		return batchKeys(backend, qs)[0]
	}
	for _, pair := range [][2][]int{
		{{}, {0}},
		{{1, 2}, {12}},
		{{7}, {8}}, // either side of a byte boundary
		{{0, 8}, {8}},
		{{36}, {}}, // the last index, alone in the last byte
		{{0, 1}, {1}},
	} {
		if key("exact", pair[0]...) == key("exact", pair[1]...) {
			t.Errorf("sets %v and %v share a key", pair[0], pair[1])
		}
	}
	if key("exact", 1, 2) == key("laplace", 1, 2) {
		t.Error("one set on two backends shares a key")
	}

	// Random sets drawn from the first byte, across the first byte
	// boundary and from the last byte, few enough that sets recur.
	rng := rand.New(rand.NewSource(1))
	owner := map[string]string{} // key -> the (backend, set) that made it
	for trial := 0; trial < 20000; trial++ {
		backend := []string{"exact", "laplace"}[rng.Intn(2)]
		var set []int // distinct indices in the order drawn
		for size := rng.Intn(5); len(set) < size; {
			v := []int{rng.Intn(4), 6 + rng.Intn(4), 32 + rng.Intn(5)}[rng.Intn(3)]
			if !slices.Contains(set, v) {
				set = append(set, v)
			}
		}
		k := key(backend, set...)
		sorted := sortedCopy(set)
		name := fmt.Sprint(backend, sorted)
		if prev, ok := owner[k]; ok && prev != name {
			t.Fatalf("%s and %s share key %q", prev, name, k)
		}
		owner[k] = name
		if got := indices([][]byte{[]byte(k[len(backend)+1:])})[0]; !slices.Equal(got, sorted) {
			t.Fatalf("%s: the bitmap expands to %v", name, got)
		}
		rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		if again := key(backend, set...); again != k {
			t.Fatalf("%s: order %v gives key %q, want %q", name, set, again, k)
		}
	}
}
