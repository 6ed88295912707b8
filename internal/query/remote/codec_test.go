package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"singlingout/internal/query"
)

// FuzzDecodeQueryRequest checks the request codec against encoding/json,
// which it replaces on the query path. Whatever the strict decoder
// accepts, encoding/json decodes to a deeply equal request (nil and
// empty slices told apart); it may refuse more. Each accepted query,
// sorted in place in the decoder's arena, gets the cache key or refusal
// canonicalizeRef gives encoding/json's copy of it. For a request built
// from the same bytes, the client encoder writes json.Marshal's bytes,
// and the decoder reads them back as encoding/json does.
func FuzzDecodeQueryRequest(f *testing.F) {
	marshal := func(req QueryRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	canonical := appendQueryRequest(nil, QueryRequest{V: V, Analyst: "analyst0", Queries: [][]int{{0, 3, 17}, {5}}})
	for _, seed := range [][]byte{
		canonical,
		marshal(QueryRequest{V: V, Analyst: `a<b&"c"`, Queries: [][]int{{1}}}),
		marshal(QueryRequest{V: V, Analyst: "é", Queries: [][]int{{1}}}),
		marshal(QueryRequest{V: V, Analyst: "bad\xffutf8", Queries: [][]int{{1}}}),
		[]byte(`{"v":2,"queries":null}`),
		[]byte(`{"v":2,"queries":[null,[1]]}`),
		[]byte(`{"v":2,"queries":[]}`),
		[]byte(`{"v":2,"queries":[[]]}`),
		[]byte(`{"v":2,"queries":[[-3,-0,0,-9223372036854775808]]}`),
		[]byte(`{"v":2,"queries":[[1.0]]}`),
		[]byte(`{"v":2,"queries":[[1e2]]}`),
		[]byte(`{"v":2,"queries":[[01]]}`),
		[]byte(`{"v":2,"queries":[[9223372036854775808]]}`),
		[]byte(`{"v":2,"extra":1,"queries":[[1]]}`),
		[]byte(`{"V":2,"queries":[[1]]}`),
		[]byte(`{"v":2,"v":3,"queries":[[1]]}`),
		[]byte(`{"v":2,"queries":[[1]]}{}`),
		[]byte(" {\"v\" : 2 ,\t\"queries\" : [ [ 1 , 2 ] ] }\r\n"),
		canonical[:len(canonical)/2],
		[]byte(`{"v":2,"queries":[[9,10,99,100,999],[1000],[999,9,100,10,99]]}`),
		[]byte(`{"v":2,"queries":[[7,3,1000,3],[3,7]]}`),
		[]byte(`{"v":2,"queries":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := decodeQueryRequest(data, math.MaxInt); err == nil {
			var want QueryRequest
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
				t.Fatalf("decoder accepts %q, encoding/json refuses it: %v", data, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoding %q: got %#v, encoding/json %#v", data, got, want)
			}
			for i, q := range got.Queries {
				key, err := canonicalize(nil, "exact", keyN, q)
				wantKey, wantErr := canonicalizeRef(nil, "exact", keyN, want.Queries[i])
				if !bytes.Equal(key, wantKey) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("query %d of %q: key %x, err %v; want %x, %v", i, data, key, err, wantKey, wantErr)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sorting %q in place: got %#v, want %#v", data, got, want)
			}
		}

		req := requestFrom(data)
		enc := appendQueryRequest(nil, req)
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("encoding %#v:\n got %s\nwant %s", req, enc, want)
		}
		back, err := decodeQueryRequest(enc, math.MaxInt)
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
	})
}

// keyN is the dataset size FuzzDecodeQueryRequest keys queries against:
// 999 is an index, 1000 is out of range.
const keyN = 1000

// canonicalizeRef is canonicalize as the server first keyed queries,
// kept as its oracle: sort, query.ValidateQuery, then the uvarint
// deltas of the sorted indices.
func canonicalizeRef(dst []byte, backend string, n int, q []int) ([]byte, error) {
	sort.Ints(q)
	if err := query.ValidateQuery(n, q); err != nil {
		return dst, err
	}
	dst = append(dst, backend...)
	dst = append(dst, '|')
	prev := 0
	for _, v := range q {
		dst = binary.AppendUvarint(dst, uint64(v-prev))
		prev = v
	}
	return dst, nil
}

// requestFrom builds a request from fuzz bytes: the bytes themselves are
// the analyst, a 0 byte closes the current query (nil when nothing
// opened it), a 1 byte opens an empty one, and every other byte adds a
// signed index shifted by its position, so some reach the int extremes.
func requestFrom(data []byte) QueryRequest {
	req := QueryRequest{V: len(data) - 2, Analyst: string(data)}
	var q []int
	for i, c := range data {
		switch c {
		case 0:
			req.Queries = append(req.Queries, q)
			q = nil
		case 1:
			q = []int{}
		default:
			q = append(q, int(int8(c))<<(i%64))
		}
	}
	return req
}

// TestAppendQueryRequestDecimals: the encoder writes every index as
// json.Marshal does, whether the decimals table holds it (0 to 999) or
// strconv writes it (negatives, 1000 and up). The fuzz target's indices
// miss most of the table: odd ones above 127 never occur.
func TestAppendQueryRequestDecimals(t *testing.T) {
	var q []int
	for v := -100; v <= 1001; v++ {
		q = append(q, v)
	}
	req := QueryRequest{V: V, Analyst: "a", Queries: [][]int{q, {math.MinInt, math.MaxInt}}}
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendQueryRequest(nil, req); !bytes.Equal(got, want) {
		t.Fatalf("encoding -100..1001 and the int extremes:\n got %s\nwant %s", got, want)
	}
}

// TestDecodeStopsAtBatchLimit: a body longer than max_batch is refused at
// query max_batch+1, so refusing a 100k-query body takes the same few
// allocations as refusing a 1k-query one. A wrong version written before
// the queries is still reported as one.
func TestDecodeStopsAtBatchLimit(t *testing.T) {
	body := func(head string, queries int, tail string) []byte {
		b := []byte(`{` + head + `"queries":[`)
		for i := 0; i < queries; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "[0]"...)
		}
		return append(b, "]"+tail+"}"...)
	}
	for _, tc := range []struct {
		body []byte
		code string
	}{
		{body(`"v":2,`, 100_000, ""), CodeBadRequest},
		{body(`"v":2,`, 9, ""), CodeBadRequest},
		{body(`"v":1,`, 9, ""), CodeUnsupportedVersion},
		{body("", 9, `,"v":1`), CodeBadRequest},
	} {
		_, err := decodeQueryRequest(tc.body, 8)
		var ref *refusal
		if !errors.As(err, &ref) || ref.code != tc.code {
			t.Errorf("%.30s…: err %v, want a %s refusal", tc.body, err, tc.code)
		}
		if tc.code == CodeBadRequest && !strings.Contains(err.Error(), "max_batch 8") {
			t.Errorf("%.30s…: message %q does not name max_batch 8", tc.body, err)
		}
	}
	if req, err := decodeQueryRequest(body(`"v":2,`, 8, ""), 8); err != nil || len(req.Queries) != 8 {
		t.Fatalf("a batch of exactly max_batch: %d queries, err %v", len(req.Queries), err)
	}

	allocs := func(queries int) float64 {
		b := body(`"v":2,`, queries, "")
		return testing.AllocsPerRun(20, func() { _, _ = decodeQueryRequest(b, 8) })
	}
	// The bound, not equality: the race detector adds an allocation now
	// and then.
	small, large := allocs(1_000), allocs(100_000)
	if small > 32 || large > 32 {
		t.Fatalf("allocations to refuse a 1k-query body: %v, a 100k-query body: %v; want at most 32 for both", small, large)
	}
}

// TestQueryKeyCanonical: distinct (backend, index set) pairs get distinct
// cache keys, and every order of one set gets the same key.
func TestQueryKeyCanonical(t *testing.T) {
	key := func(backend string, set ...int) string {
		kb, err := canonicalize(nil, backend, 1<<20, append([]int(nil), set...))
		if err != nil {
			t.Fatal(err)
		}
		return string(kb)
	}
	for _, pair := range [][2][]int{
		{{}, {0}},
		{{1, 2}, {12}},
		{{0, 128}, {128}}, // 128 is the first two-byte uvarint
		{{127}, {128}},
		{{0, 1}, {1}},
	} {
		if key("exact", pair[0]...) == key("exact", pair[1]...) {
			t.Errorf("sets %v and %v share a key", pair[0], pair[1])
		}
	}
	if key("exact", 1, 2) == key("laplace", 1, 2) {
		t.Error("one set on two backends shares a key")
	}

	// Random sets mixing small indices with ones across the two- and
	// three-byte uvarint boundaries (128, 16384), few enough that sets
	// recur. Sizes stay below 16, so ValidateQuery takes its quadratic
	// scan for short queries.
	rng := rand.New(rand.NewSource(1))
	owner := map[string]string{} // key -> the (backend, set) that made it
	for trial := 0; trial < 20000; trial++ {
		backend := []string{"exact", "laplace"}[rng.Intn(2)]
		var set []int // distinct indices in the order drawn
		for size := rng.Intn(4); len(set) < size; {
			v := []int{rng.Intn(8), 120 + rng.Intn(16), 16380 + rng.Intn(8)}[rng.Intn(3)]
			if !slices.Contains(set, v) {
				set = append(set, v)
			}
		}
		k := key(backend, set...)
		sorted := append([]int(nil), set...)
		slices.Sort(sorted)
		name := fmt.Sprint(backend, sorted)
		if prev, ok := owner[k]; ok && prev != name {
			t.Fatalf("%s and %s share key %q", prev, name, k)
		}
		owner[k] = name
		rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		if again := key(backend, set...); again != k {
			t.Fatalf("%s: order %v gives key %q, want %q", name, set, again, k)
		}
	}
}
