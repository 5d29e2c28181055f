package obs

// W3C Trace Context (traceparent) support: the fleet's distributed
// tracing currency. A TraceContext is the parsed form of the
// `traceparent` request header — trace id, parent span id, flags — and
// every layer that crosses a process boundary (serving, cluster tailer,
// bench load) either adopts the caller's context or mints a fresh one, so
// one trace id follows a query across the whole fleet. Stdlib-only, like
// the rest of the package.

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	mathrand "math/rand/v2"
	"sync"
)

// TraceparentHeader is the canonical request-header name.
const TraceparentHeader = "traceparent"

// TraceContext is a parsed W3C traceparent: version 00, a 16-byte trace
// id and an 8-byte span id, both lowercase hex. The zero value is
// invalid (all-zero ids are forbidden by the spec).
type TraceContext struct {
	TraceID string // 32 lowercase hex characters, not all-zero
	SpanID  string // 16 lowercase hex characters, not all-zero
	Flags   byte   // bit 0: sampled
}

// Valid reports whether the context carries well-formed, non-zero ids.
func (tc TraceContext) Valid() bool {
	return isHexID(tc.TraceID, 32) && isHexID(tc.SpanID, 16)
}

// Header renders the context in traceparent wire form
// ("00-<trace-id>-<span-id>-<flags>").
func (tc TraceContext) Header() string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = append(b, tc.TraceID...)
	b = append(b, '-')
	b = append(b, tc.SpanID...)
	b = append(b, '-')
	b = append(b, hexDigits[tc.Flags>>4], hexDigits[tc.Flags&0xf])
	return string(b)
}

// Child returns a context in the same trace with a freshly minted span
// id — what an outbound request propagates so the receiver's log line
// can be distinguished from the originating request's.
func (tc TraceContext) Child() TraceContext {
	return TraceContext{TraceID: tc.TraceID, SpanID: mintHex(16), Flags: tc.Flags}
}

const hexDigits = "0123456789abcdef"

// isHexID reports whether s is exactly n lowercase hex digits and not
// all zeros (the spec forbids all-zero trace and span ids).
func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// ParseTraceparent parses a traceparent header value. ok is false for a
// missing or malformed header — the spec says to discard and restart the
// trace, which is exactly what callers do by minting a fresh context.
// Unknown future versions are accepted as long as the 00-format prefix
// parses (per the spec's forward-compatibility rule); version "ff" is
// forbidden.
func ParseTraceparent(h string) (TraceContext, bool) {
	if len(h) < 55 {
		return TraceContext{}, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	version := h[0:2]
	if !isHexPair(version) || version == "ff" {
		return TraceContext{}, false
	}
	if version == "00" && len(h) != 55 {
		return TraceContext{}, false
	}
	if len(h) > 55 && h[55] != '-' {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: h[3:35], SpanID: h[36:52]}
	if !isHexPair(h[53:55]) {
		return TraceContext{}, false
	}
	tc.Flags = unhex(h[53])<<4 | unhex(h[54])
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

func isHexPair(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return len(s) == 2
}

func unhex(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

// idRand is the trace-id source: a fast PRNG seeded once from
// crypto/rand. Trace ids need uniqueness, not unpredictability, so the
// per-request cost is one locked PRNG read per 16 hex digits instead of a
// syscall.
var (
	idRandMu sync.Mutex
	idRand   *mathrand.Rand
)

func init() {
	var seed [32]byte
	_, _ = cryptorand.Read(seed[:])
	var chacha [4]uint64
	for i := range chacha {
		chacha[i] = binary.LittleEndian.Uint64(seed[i*8:])
	}
	idRand = mathrand.New(mathrand.NewPCG(chacha[0]^chacha[2], chacha[1]^chacha[3]))
}

// mintHex returns n random lowercase hex digits as one string (n a
// multiple of 16, at most 48). Each run of 16 digits is one PRNG word,
// all read under one lock take, and no word is zero, so a caller that
// cuts the string into 16- or 32-digit ids never gets an all-zero one.
func mintHex(n int) string {
	var words [3]uint64
	idRandMu.Lock()
	for i := range n / 16 {
		words[i] = idRand.Uint64()
	}
	idRandMu.Unlock()
	var b [48]byte
	for i := range n {
		w := words[i/16]
		if w == 0 {
			w = 1 // astronomically unlikely; the spec forbids all-zero ids
		}
		b[i] = hexDigits[w>>(60-4*(i%16))&0xf]
	}
	return string(b[:n])
}

// MintTraceContext starts a new sampled trace: fresh trace and span ids,
// minted as one string and cut in two.
func MintTraceContext() TraceContext {
	ids := mintHex(48)
	return TraceContext{TraceID: ids[:32], SpanID: ids[32:], Flags: 0x01}
}

// ActiveTrace binds one request's W3C trace context to its span
// collector. The serving layer embeds one per request in its request
// context (an ActiveContext), and the core pipeline appends
// backend-execution spans through TraceFromContext — without the layers
// importing each other.
type ActiveTrace struct {
	TC    TraceContext
	Spans *Trace
}

type activeTraceKey struct{}

// ActiveContext is a context that carries its active trace by value: a
// per-request record that embeds one binds the trace without a
// context.WithValue node. Context is the parent; every other key goes to
// it.
type ActiveContext struct {
	context.Context
	Active ActiveTrace
}

// Value answers TraceFromContext's key with the embedded trace.
func (c *ActiveContext) Value(key any) any {
	if key == (activeTraceKey{}) {
		return &c.Active
	}
	return c.Context.Value(key)
}

// TraceFromContext returns the request's span collector, or nil (a valid
// no-op Trace receiver) when the caller is not inside a traced request.
func TraceFromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	if at, _ := ctx.Value(activeTraceKey{}).(*ActiveTrace); at != nil {
		return at.Spans
	}
	return nil
}
