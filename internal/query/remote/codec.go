package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"singlingout/internal/query"
)

// This file is the codec of the POST /v1/query/{backend} hot path: the
// request body both ways and the answer-cache key. Everything else on the
// wire (responses, /v1/meta, /v1/ledger) and the WAL stay encoding/json.
//
// The server accepts exactly the bodies the client writes, which are
// the bytes json.Marshal(QueryRequest) produces, plus JSON whitespace
// between tokens:
//
//	request = "{" [ member *( "," member ) ] "}"
//	member  = `"v"` ":" int / `"analyst"` ":" string / `"queries"` ":" ( "null" / "[" [ query *( "," query ) ] "]" )
//	query   = "null" / "[" [ int *( "," int ) ] "]"
//	int     = [ "-" ] ( "0" / %x31-39 *%x30-39 )   ; within the range of an int
//
// with each key at most once and string a JSON string. Anything else —
// an unknown or case-folded key, a fraction or exponent, null where an
// int or string belongs, bytes after the object — is a bad_request.

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

// decodeQueryRequest parses a request body under the grammar above.
// Every error it returns is a *refusal. A batch longer than maxBatch
// stops the decode at query maxBatch+1, so decoding an oversized batch
// costs no more than decoding an admissible one; the refusal is
// unsupported_version when a "v" other than V preceded "queries", as
// clients write it, and bad_request otherwise.
func decodeQueryRequest(body []byte, maxBatch int) (QueryRequest, error) {
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
				req.V, err = d.int()
			case keyAnalyst:
				req.Analyst, err = d.string()
			case keyQueries:
				req.Queries, err = d.queries(maxBatch)
				if errors.Is(err, errBatchLimit) {
					if seen[keyV] && req.V != V {
						return req, versionRefusal(req.V)
					}
					return req, &refusal{CodeBadRequest, fmt.Sprintf("batch exceeds max_batch %d", maxBatch)}
				}
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
	return req, nil
}

// errBatchLimit is decoder.queries' signal at query maxBatch+1, which
// decodeQueryRequest turns into a refusal.
var errBatchLimit = errors.New("batch limit")

// decoder scans a request body; i is the offset of the next unread byte.
// arena is the block the queries' indices are appended to (see query).
type decoder struct {
	b     []byte
	i     int
	arena []int
}

// arenaBlock is the size, in indices, of the arena's first block and of
// the step each later block adds.
const arenaBlock = 256

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
// is refused, as encoding/json refuses it for an int. The digit loop has
// no overflow branch, and the common token — up to 18 digits, which
// cannot overflow, without a leading zero and followed by ',' or ']' —
// skips the checks that refuse the rest.
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
	digits := i - start
	if common := uint(digits-1) < 18 && (b[start] != '0' || digits == 1) && i < len(b) && (b[i] == ',' || b[i] == ']'); !common {
		switch {
		case digits > 19: // more digits than any int64 has, so u may have wrapped
			d.i = start
			return 0, d.errorf("integer overflows int")
		case digits == 0:
			return 0, d.errorf("want an integer")
		case b[start] == '0' && digits > 1:
			d.i = start
			return 0, d.errorf("leading zero")
		case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
			d.i = i
			return 0, d.errorf("not an integer")
		case !neg && u > math.MaxInt, neg && u > math.MaxInt+1:
			d.i = start
			return 0, d.errorf("integer overflows int")
		}
	}
	d.i = i
	if neg {
		return -int(u), nil // u == MaxInt+1 wraps to MinInt, as it should
	}
	return int(u), nil
}

// queries reads the batch, stopping with errBatchLimit at query
// maxBatch+1. Every query is a capped subslice of the arena, so the
// handler can sort each in place without reaching its neighbours.
func (d *decoder) queries(maxBatch int) ([][]int, error) {
	d.peek()
	if d.null() {
		return nil, nil
	}
	if err := d.expect('['); err != nil {
		return nil, err
	}
	qs := make([][]int, 0) // [] is an empty batch, not a nil one, as in encoding/json
	if d.peek() == ']' {
		d.i++
		return qs, nil
	}
	for {
		if len(qs) == maxBatch {
			return qs, errBatchLimit
		}
		q, err := d.query()
		if err != nil {
			return qs, err
		}
		qs = append(qs, q)
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			return qs, nil
		default:
			return qs, d.errorf("want ',' or ']'")
		}
	}
}

// query reads one query: null, or an array of ints, appended to the
// arena. The arena grows as indices arrive, never from the body's size:
// when its block is full, a block a quarter larger (plus arenaBlock)
// takes over and only the query being read moves into it. Finished
// queries stay in the blocks they were read into, so the blocks grow as
// one appended slice would, without copying what is already decoded.
func (d *decoder) query() ([]int, error) {
	d.peek()
	if d.null() {
		return nil, nil
	}
	if err := d.expect('['); err != nil {
		return nil, err
	}
	if d.peek() == ']' {
		d.i++
		return []int{}, nil
	}
	lo := len(d.arena)
	for {
		v, err := d.int()
		if err != nil {
			return nil, err
		}
		if len(d.arena) == cap(d.arena) {
			block := make([]int, len(d.arena)-lo, cap(d.arena)+cap(d.arena)/4+arenaBlock)
			copy(block, d.arena[lo:])
			d.arena, lo = block, 0
		}
		d.arena = append(d.arena, v)
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			hi := len(d.arena)
			return d.arena[lo:hi:hi], nil
		default:
			return nil, d.errorf("want ',' or ']'")
		}
	}
}

// appendQueryRequest appends the body of req to dst: byte for byte what
// json.Marshal(req) writes, without its reflection. An index below 1000
// is copied from the decimals table; any other goes to strconv.
func appendQueryRequest(dst []byte, req QueryRequest) []byte {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(req.V), 10)
	if req.Analyst != "" {
		dst = append(dst, `,"analyst":`...)
		dst = appendJSONString(dst, req.Analyst)
	}
	dst = append(dst, `,"queries":`...)
	if req.Queries == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, q := range req.Queries {
			if i > 0 {
				dst = append(dst, ',')
			}
			if q == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for j, v := range q {
				if j > 0 {
					dst = append(dst, ',')
				}
				if uint(v) >= uint(len(decimals)) {
					dst = strconv.AppendInt(dst, int64(v), 10)
					continue
				}
				// All three bytes of the entry go in, and the slice is
				// cut back to its digits: no branch on the length.
				e := decimals[v]
				dst = append(dst, e[0], e[1], e[2])
				dst = dst[:len(dst)-3+int(e[3])]
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// decimals holds the digits of 0 to 999, left-aligned in the first three
// bytes of each entry, and their count in the fourth.
var decimals = func() (t [1000][4]byte) {
	for v := range t {
		s := strconv.Itoa(v)
		copy(t[v][:3], s)
		t[v][3] = byte(len(s))
	}
	return t
}()

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

// canonicalize sorts q in place, validates it against a dataset of n
// records and appends its answer-cache key to dst: the backend name, '|',
// then the uvarint deltas of the sorted indices, the first index being
// its own delta. Uvarints are prefix-free and backend names hold no '|',
// so distinct (backend, index set) pairs get distinct keys, and every
// order of one set gets the same key.
func canonicalize(dst []byte, backend string, n int, q []int) ([]byte, error) {
	// A query already in increasing order, as clients write them, is its
	// own sort. Only a query that still fails the check once sorted goes
	// to ValidateQuery, for the refusal that names the offending index.
	if !sortedSubset(q, n) {
		sort.Ints(q)
		if !sortedSubset(q, n) {
			return dst, query.ValidateQuery(n, q)
		}
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

// sortedSubset reports whether q lists distinct indices of [0, n) in
// increasing order, in one pass: its first index is at least 0, each
// index exceeds the one before and the last is below n.
func sortedSubset(q []int, n int) bool {
	ok := len(q) == 0 || q[0] >= 0 && q[len(q)-1] < n
	for j := 1; ok && j < len(q); j++ {
		ok = q[j] > q[j-1]
	}
	return ok
}
