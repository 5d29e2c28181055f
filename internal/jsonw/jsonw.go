// Package jsonw appends JSON scalars to a byte slice exactly as
// encoding/json writes them through an Encoder with SetEscapeHTML(false):
// the serving layer renders its hottest response with these instead of
// reflecting over an intermediate struct, and the bytes must not differ.
package jsonw

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string. '"', '\\' and the control
// characters \b, \f, \n, \r and \t take their short escapes; other bytes
// below 0x20 become \u00XX. Each invalid UTF-8 byte becomes the escaped
// replacement character �, and U+2028 and U+2029 are escaped because
// JavaScript treats them as line terminators. '<', '>' and '&' are
// written raw.
func AppendString[T string | []byte](dst []byte, s T) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending, to be copied verbatim
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		// At most utf8.UTFMax bytes: converting that short a slice to a
		// string for the decoder does not allocate.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// AppendFloat appends f as a JSON number, formatted the way encoding/json
// formats a float64: the shortest decimal that round-trips, in plain
// notation for magnitudes in [1e-6, 1e21) and otherwise in exponent
// notation with at least one exponent digit ("1e-7", "1e+21"). f must be
// finite: JSON has no NaN or infinity.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// strconv writes a two-digit exponent ("1e-07"); JSON does not pad.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
