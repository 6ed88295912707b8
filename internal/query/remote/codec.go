package remote

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"singlingout/internal/query"
)

// This file is the codec of the POST /v1/query/{backend} hot path: the
// request body both ways, the queries' bitmaps and the answer-cache key.
// Everything else on the wire (responses, /v1/meta, /v1/ledger) and the
// WAL stay encoding/json.
//
// The server accepts exactly the bodies the client writes, which are
// the bytes json.Marshal(QueryRequest) produces, plus JSON whitespace
// between tokens:
//
//	request = "{" [ member *( "," member ) ] "}"
//	member  = `"v"` ":" int / `"analyst"` ":" string / `"queries"` ":" ( "null" / "[" [ query *( "," query ) ] "]" )
//	query   = string   ; the padded standard base64 of the query's ⌈n/8⌉-byte bitmap
//	int     = [ "-" ] ( "0" / %x31-39 *%x30-39 )   ; within the range of an int
//
// with each key at most once and string a JSON string. Anything else —
// an unknown or case-folded key, a fraction or exponent, null where an
// int, string or query belongs, a query string holding any byte outside
// the base64 alphabet, bytes after the object — is a bad_request. A
// query whose bitmap is not ⌈n/8⌉ bytes, or sets a bit at or above n, is
// an invalid_query.

// refusal is a request the server refuses before admission control: the
// wire code and message of its 400 response.
type refusal struct{ code, msg string }

func (r *refusal) Error() string { return r.msg }

// versionRefusal refuses a request of wire version v != V.
func versionRefusal(v int) *refusal {
	return &refusal{CodeUnsupportedVersion, fmt.Sprintf("wire version %d, server speaks %d", v, V)}
}

// Keys of a request body, in the order clients write them.
const (
	keyV = iota
	keyAnalyst
	keyQueries
)

// decodeQueryRequest parses a request body under the grammar above, for
// a dataset of n records. Every error it returns is a *refusal. A "v"
// other than V is refused as unsupported_version as soon as it is read,
// so a body of another version, written "v" first as clients write it,
// gets that refusal whatever follows; a body with no "v" gets it at the
// end. A batch longer than maxBatch stops the decode at query
// maxBatch+1, so decoding an oversized batch costs no more than decoding
// an admissible one.
func decodeQueryRequest(body []byte, maxBatch, n int) (QueryRequest, error) {
	d := decoder{b: body}
	var req QueryRequest
	var seen [3]bool
	if err := d.expect('{'); err != nil {
		return req, err
	}
	if d.peek() == '}' {
		d.i++
	} else {
		for {
			key, err := d.key()
			if err != nil {
				return req, err
			}
			if seen[key] {
				return req, d.errorf("duplicate key")
			}
			seen[key] = true
			if err := d.expect(':'); err != nil {
				return req, err
			}
			switch key {
			case keyV:
				if req.V, err = d.int(); err == nil && req.V != V {
					return req, versionRefusal(req.V)
				}
			case keyAnalyst:
				req.Analyst, err = d.string()
			case keyQueries:
				req.Queries, err = d.queries(maxBatch, n)
			}
			if err != nil {
				return req, err
			}
			if d.peek() == '}' {
				d.i++
				break
			}
			if err := d.expect(','); err != nil {
				return req, err
			}
		}
	}
	if d.peek(); d.i < len(d.b) {
		return req, d.errorf("bytes after the object")
	}
	if req.V != V {
		return req, versionRefusal(req.V)
	}
	return req, nil
}

// decoder scans a request body; i is the offset of the next unread byte.
// arena holds the bitmaps decoded so far, end to end (see queries).
type decoder struct {
	b     []byte
	i     int
	arena []byte
}

func (d *decoder) errorf(format string, args ...any) error {
	return &refusal{CodeBadRequest, fmt.Sprintf("undecodable body: offset %d: ", d.i) + fmt.Sprintf(format, args...)}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		// No whitespace byte is above ' ', so most bytes stop at the
		// first comparison.
		if c := d.b[d.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// expect consumes the byte c after optional whitespace.
func (d *decoder) expect(c byte) error {
	if d.peek() != c {
		return d.errorf("want %q", c)
	}
	d.i++
	return nil
}

// null consumes the literal null if it comes next.
func (d *decoder) null() bool {
	if bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += len("null")
		return true
	}
	return false
}

// key reads a member name, which must be one of the three keys byte for
// byte.
func (d *decoder) key() (int, error) {
	if err := d.expect('"'); err != nil {
		return 0, err
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		return 0, d.errorf("unterminated key")
	}
	var key int
	switch k := d.b[d.i : d.i+n]; string(k) {
	case "v":
		key = keyV
	case "analyst":
		key = keyAnalyst
	case "queries":
		key = keyQueries
	default:
		return 0, d.errorf("unknown key %q", k)
	}
	d.i += n + 1
	return key, nil
}

// string reads a JSON string. A plain printable-ASCII string is sliced
// out directly; one holding an escape or a non-ASCII byte goes to
// encoding/json, which owns escape decoding and UTF-8 replacement.
func (d *decoder) string() (string, error) {
	if err := d.expect('"'); err != nil {
		return "", err
	}
	start := d.i
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			d.i = j + 1
			return string(d.b[start:j]), nil
		case c < 0x20:
			d.i = j
			return "", d.errorf("control character in string")
		case c == '\\' || c >= 0x80:
			return d.slowString(start - 1)
		}
	}
	return "", d.errorf("unterminated string")
}

// slowString decodes the string token starting at the quote at offset
// start with json.Unmarshal.
func (d *decoder) slowString(start int) (string, error) {
	for j := start + 1; j < len(d.b); j++ {
		switch d.b[j] {
		case '\\':
			j++
		case '"':
			var s string
			if err := json.Unmarshal(d.b[start:j+1], &s); err != nil {
				d.i = start
				return "", d.errorf("%v", err)
			}
			d.i = j + 1
			return s, nil
		}
	}
	d.i = start
	return "", d.errorf("unterminated string")
}

// int parses an integer in place: an optional minus, then 0 or a digit
// string without a leading zero, fitting an int. A fraction or exponent
// is refused, as encoding/json refuses it for an int.
func (d *decoder) int() (int, error) {
	d.peek()
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	switch digits := i - start; {
	case digits == 0:
		return 0, d.errorf("want an integer")
	case b[start] == '0' && digits > 1:
		d.i = start
		return 0, d.errorf("leading zero")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		d.i = i
		return 0, d.errorf("not an integer")
	case digits > 19, !neg && u > math.MaxInt, neg && u > math.MaxInt+1:
		// More than 19 digits may have wrapped u.
		d.i = start
		return 0, d.errorf("integer overflows int")
	}
	d.i = i
	if neg {
		return -int(u), nil // u == MaxInt+1 wraps to MinInt, as it should
	}
	return int(u), nil
}

// queries reads the batch of bitmaps over n records, refusing it at
// query maxBatch+1. Each query is decoded onto the end of the arena,
// which thus grows by one bitmap per query decoded; the batch is cut
// from it at the end, each query a capped subslice.
func (d *decoder) queries(maxBatch, n int) ([][]byte, error) {
	d.peek()
	if d.null() {
		return nil, nil
	}
	if err := d.expect('['); err != nil {
		return nil, err
	}
	count := 0
	for ; d.peek() != ']'; count++ {
		if count > 0 {
			if err := d.expect(','); err != nil {
				return nil, err
			}
		}
		if count == maxBatch {
			return nil, &refusal{CodeBadRequest, fmt.Sprintf("batch exceeds max_batch %d", maxBatch)}
		}
		if err := d.bitmap(count, n); err != nil {
			return nil, err
		}
	}
	d.i++
	w := (n + 7) / 8
	qs := make([][]byte, count) // [] is an empty batch, not a nil one, as in encoding/json
	for i := range qs {
		qs[i] = d.arena[i*w : (i+1)*w : (i+1)*w]
	}
	return qs, nil
}

// bitmapEncoding decodes a query's bitmap. Strict refuses nonzero
// padding bits, so each bitmap has exactly one string.
var bitmapEncoding = base64.StdEncoding.Strict()

// base64Alphabet holds true for exactly the bytes a query string may
// hold: the standard base64 alphabet and the padding byte '='.
var base64Alphabet = func() (t [256]bool) {
	for _, c := range []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=") {
		t[c] = true
	}
	return t
}()

// bitmap reads query i, a string holding the padded standard base64 of
// its ⌈n/8⌉-byte bitmap, and decodes it onto the end of the arena. A
// byte outside the base64 alphabet is refused before decoding, since
// base64 skips CR and LF even in strict mode, and a string of the wrong
// length is refused before it is decoded: the arena never grows by what
// a string holds.
func (d *decoder) bitmap(i, n int) error {
	if err := d.expect('"'); err != nil {
		return err
	}
	start := d.i
	for d.i < len(d.b) && base64Alphabet[d.b[d.i]] {
		d.i++
	}
	switch {
	case d.i == len(d.b):
		return d.errorf("unterminated string")
	case d.b[d.i] != '"':
		return d.errorf("byte %q in a query, want standard base64", d.b[d.i])
	}
	src := d.b[start:d.i]
	d.i++
	w := (n + 7) / 8
	if want := bitmapEncoding.EncodedLen(w); len(src) != want {
		return &refusal{CodeInvalidQuery, fmt.Sprintf("query %d: %d base64 bytes, want %d for a %d-byte bitmap of n = %d", i, len(src), want, w, n)}
	}
	// Decode writes up to DecodedLen bytes, two more than w when
	// misplaced padding makes the string decode long.
	off := len(d.arena)
	d.arena = slices.Grow(d.arena, bitmapEncoding.DecodedLen(len(src)))
	got, err := bitmapEncoding.Decode(d.arena[off:cap(d.arena)], src)
	d.arena = d.arena[:off+got]
	switch {
	case err != nil:
		d.i = start
		return d.errorf("query %d: %v", i, err)
	case got != w:
		return &refusal{CodeInvalidQuery, fmt.Sprintf("query %d: %d-byte bitmap, want %d for n = %d", i, got, w, n)}
	}
	// Bits n and up of the last byte must be clear. At n%8 == 0 the
	// shift is 8, which clears the byte.
	if high := d.arena[off+w-1] >> (n - 8*(w-1)); high != 0 {
		return &refusal{CodeInvalidQuery, fmt.Sprintf("query %d: index %d outside dataset of size %d", i, n+bits.TrailingZeros8(high), n)}
	}
	return nil
}

// bitmaps checks every query against a dataset of n records and returns
// their bitmaps, each a capped slice of one array: an index outside
// [0, n) or listed twice fails with query.ErrInvalidQuery, naming the
// query and the index. Every order of one set gives one bitmap.
func bitmaps(n int, queries [][]int) ([][]byte, error) {
	w := (n + 7) / 8
	arena := make([]byte, len(queries)*w)
	out := make([][]byte, len(queries))
	for i, q := range queries {
		b := arena[i*w : (i+1)*w : (i+1)*w]
		for _, v := range q {
			u := uint(v) // a negative v wraps above any n
			if u >= uint(n) {
				return nil, fmt.Errorf("remote: query %d: %w: index %d outside dataset of size %d", i, query.ErrInvalidQuery, v, n)
			}
			bit := byte(1) << (u & 7)
			if b[u>>3]&bit != 0 {
				return nil, fmt.Errorf("remote: query %d: %w: duplicate index %d (a query is a subset of [n])", i, query.ErrInvalidQuery, v)
			}
			b[u>>3] |= bit
		}
		out[i] = b
	}
	return out, nil
}

// indices expands bitmaps into the increasing index lists the backends
// take, each a capped slice of one array.
func indices(bms [][]byte) [][]int {
	size := 0
	for _, b := range bms {
		for _, c := range b {
			size += bits.OnesCount8(c)
		}
	}
	flat := make([]int, 0, size)
	out := make([][]int, len(bms))
	for i, b := range bms {
		lo := len(flat)
		for j, c := range b {
			for ; c != 0; c &= c - 1 {
				flat = append(flat, 8*j+bits.TrailingZeros8(c))
			}
		}
		out[i] = flat[lo:len(flat):len(flat)]
	}
	return out
}

// batchKeys returns the answer-cache keys of a batch asked of backend:
// the backend name, '|', then the query's bitmap, all cut from one
// string. Every bitmap a server accepts is ⌈n/8⌉ bytes, so distinct
// (backend, set) pairs get distinct keys.
func batchKeys(backend string, qs [][]byte) []string {
	size := 0
	for _, q := range qs {
		size += len(backend) + 1 + len(q)
	}
	kb := make([]byte, 0, size)
	for _, q := range qs {
		kb = append(kb, backend...)
		kb = append(kb, '|')
		kb = append(kb, q...)
	}
	all := string(kb)
	keys := make([]string, len(qs))
	for i, q := range qs {
		k := len(backend) + 1 + len(q)
		keys[i], all = all[:k], all[k:]
	}
	return keys
}

// appendQueryRequest appends the body of req to dst: byte for byte what
// json.Marshal(req) writes, without its reflection, for a request whose
// bitmaps are all non-nil, as the client's are.
func appendQueryRequest(dst []byte, req QueryRequest) []byte {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(req.V), 10)
	if req.Analyst != "" {
		dst = append(dst, `,"analyst":`...)
		dst = appendJSONString(dst, req.Analyst)
	}
	dst = append(dst, `,"queries":`...)
	if req.Queries == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i, q := range req.Queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = base64.StdEncoding.AppendEncode(dst, q)
		dst = append(dst, '"')
	}
	return append(dst, "]}"...)
}

// appendJSONString appends s as json.Marshal quotes it. Printable ASCII
// other than '"', '\\' and the HTML-escaped '<', '>', '&' is copied;
// any other string goes through json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
