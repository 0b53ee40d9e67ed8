package server

// The PUT /datasets body scanner. A body is almost entirely base64 inside two
// string members per tile, and a general JSON decoder walks every one of
// those bytes through its state machine twice (once to find the end of the
// value, once to unmarshal it) before base64 sees them. tileScanner instead
// finds the end of a string with one byte search over a fixed read buffer and
// hands a backslash-free raw_a/raw_b straight to base64, decoding into two
// buffers it reuses from tile to tile. Everything else — keys, numbers,
// literals, nested values, any string holding an escape — it only delimits
// and passes on to encoding/json, which stays the one owner of JSON's corner
// cases (key folding, duplicate keys, null, unknown fields, number syntax).

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// scanBufBytes is the scanner's read buffer: a few tiles' worth of a
// representative slide, so most strings are decoded where they were read.
const scanBufBytes = 64 << 10

type tileScanner struct {
	r       *bufio.Reader
	started bool // an element has been read: a comma must precede the next
	// tok pieces together a string the read buffer could not hold whole.
	tok []byte
	// rest collects the current tile's members that did not take the base64
	// path, as one JSON object for encoding/json.
	rest []byte
	// rawA and rawB hold the tile's decoded raw_a and raw_b; the TilePayload
	// handed out aliases them until the next call to tile.
	rawA, rawB []byte
}

func newTileScanner(r io.Reader, bufBytes int) *tileScanner {
	return &tileScanner{r: bufio.NewReaderSize(r, bufBytes)}
}

var errBodyTruncated = errors.New("unexpected end of body")

func unexpected(c byte, where string) error {
	return fmt.Errorf("invalid character %q %s", c, where)
}

// readByte is ReadByte with the body ending reported as a truncation.
func (s *tileScanner) readByte() (byte, error) {
	c, err := s.r.ReadByte()
	if err == io.EOF {
		err = errBodyTruncated
	}
	return c, err
}

// skipSpace consumes JSON whitespace and the byte after it, which it returns.
func (s *tileScanner) skipSpace() (byte, error) {
	for {
		c, err := s.readByte()
		if err != nil || (c != ' ' && c != '\t' && c != '\r' && c != '\n') {
			return c, err
		}
	}
}

// open consumes the array's opening bracket.
func (s *tileScanner) open() error {
	c, err := s.skipSpace()
	if err == nil && c != '[' {
		err = unexpected(c, "looking for the tile array")
	}
	return err
}

// more reports whether another tile follows, consuming the comma before it
// or, when none does, the closing bracket.
func (s *tileScanner) more() (bool, error) {
	c, err := s.skipSpace()
	switch {
	case err != nil:
		return false, err
	case c == ']':
		return false, nil
	case !s.started:
		return true, s.r.UnreadByte()
	case c != ',':
		return false, unexpected(c, "after array element")
	}
	return true, nil
}

// tile reads the next array element into tp as json.Decoder.Decode would
// with unknown fields disallowed, except that an element that is not an
// object is an error (Decode leaves tp empty on null, which the handler
// rejects all the same). tp.RawA and tp.RawB may alias the scanner's buffers:
// they are valid until the next call.
func (s *tileScanner) tile(tp *TilePayload) error {
	*tp = TilePayload{}
	s.started = true
	s.rest = s.rest[:0]
	c, err := s.skipSpace()
	if err != nil {
		return err
	}
	if c != '{' {
		return unexpected(c, "looking for a tile object")
	}
	if c, err = s.skipSpace(); err != nil || c == '}' {
		return err
	}
	for {
		if c != '"' {
			return unexpected(c, "looking for a member name")
		}
		if err := s.member(tp); err != nil {
			return err
		}
		if c, err = s.skipSpace(); err != nil {
			return err
		}
		if c == '}' {
			return s.flushRest(tp)
		}
		if c != ',' {
			return unexpected(c, "after a member")
		}
		if c, err = s.skipSpace(); err != nil {
			return err
		}
	}
}

// member reads one name:value pair, the name's opening quote consumed. A
// raw_a or raw_b holding plain base64 is decoded on the spot; any other
// member is appended to rest.
func (s *tileScanner) member(tp *TilePayload) error {
	mark := len(s.rest)
	key, err := s.readString()
	if err != nil {
		return err
	}
	var buf, field *[]byte
	switch string(key) {
	case "raw_a":
		buf, field = &s.rawA, &tp.RawA
	case "raw_b":
		buf, field = &s.rawB, &tp.RawB
	}
	// key is a view of the read buffer, gone with the next read.
	sep := byte(',')
	if mark == 0 {
		sep = '{'
	}
	s.rest = append(appendQuoted(append(s.rest, sep), key), ':')
	c, err := s.skipSpace()
	if err == nil && c != ':' {
		err = unexpected(c, "after a member name")
	}
	if err != nil {
		return err
	}
	if c, err = s.skipSpace(); err != nil {
		return err
	}
	if buf == nil || c != '"' {
		return s.copyValue(c)
	}
	str, err := s.readString()
	if err != nil {
		return err
	}
	// An escape is encoding/json's to resolve; so is a raw line break, which
	// no JSON string may hold and which base64 would skip without a word.
	if bytes.IndexByte(str, '\\') >= 0 || bytes.IndexByte(str, '\n') >= 0 || bytes.IndexByte(str, '\r') >= 0 {
		s.rest = appendQuoted(s.rest, str)
		return nil
	}
	// Members take effect in body order, so that a repeated name keeps its
	// last-one-wins meaning: what precedes this one is applied first.
	s.rest = s.rest[:mark]
	if err := s.flushRest(tp); err != nil {
		return err
	}
	if need := base64.StdEncoding.DecodedLen(len(str)); cap(*buf) < need {
		*buf = make([]byte, need)
	}
	n, err := base64.StdEncoding.Decode((*buf)[:cap(*buf)], str)
	if err != nil {
		return err
	}
	*field = (*buf)[:n]
	return nil
}

func appendQuoted(dst, str []byte) []byte {
	return append(append(append(dst, '"'), str...), '"')
}

// flushRest applies the members collected in rest to tp.
func (s *tileScanner) flushRest(tp *TilePayload) error {
	if len(s.rest) == 0 {
		return nil
	}
	s.rest = append(s.rest, '}')
	dec := json.NewDecoder(bytes.NewReader(s.rest))
	dec.DisallowUnknownFields()
	err := dec.Decode(tp)
	s.rest = s.rest[:0]
	return err
}

// readString reads the rest of a string, its opening quote consumed, and
// returns what lies between the quotes with escapes unresolved. The result is
// a view of the read buffer when the string fits there, and is valid until
// the next read either way.
func (s *tileScanner) readString() ([]byte, error) {
	s.tok = s.tok[:0]
	for {
		str, err := s.r.ReadSlice('"')
		if err == io.EOF {
			return nil, errBodyTruncated
		}
		if err != nil && err != bufio.ErrBufferFull {
			return nil, err
		}
		if len(s.tok) > 0 || err != nil || quoteEscaped(str) {
			s.tok = append(s.tok, str...)
			str = s.tok
		}
		if err == nil && !quoteEscaped(str) {
			return str[:len(str)-1], nil
		}
	}
}

// quoteEscaped reports whether the quote str ends with is escaped: preceded
// by an odd number of backslashes.
func quoteEscaped(str []byte) bool {
	i := len(str) - 1
	for i > 0 && str[i-1] == '\\' {
		i--
	}
	return (len(str)-1-i)%2 == 1
}

// copyValue appends to rest the value that starts with c, delimited only:
// whether it is well formed is for encoding/json to say.
func (s *tileScanner) copyValue(c byte) error {
	if c == '"' {
		str, err := s.readString()
		s.rest = appendQuoted(s.rest, str)
		return err
	}
	if c != '{' && c != '[' {
		// A number or literal runs to the next delimiter, left unread.
		for n := 0; ; n++ {
			switch c {
			case ' ', '\t', '\r', '\n', ',', '}', ']':
				if n == 0 {
					return unexpected(c, "looking for a value")
				}
				return s.r.UnreadByte()
			}
			s.rest = append(s.rest, c)
			var err error
			if c, err = s.readByte(); err != nil {
				return err
			}
		}
	}
	s.rest = append(s.rest, c)
	for depth := 1; depth > 0; {
		c, err := s.readByte()
		if err != nil {
			return err
		}
		switch c {
		case '"':
			str, err := s.readString()
			if err != nil {
				return err
			}
			s.rest = appendQuoted(s.rest, str)
			continue
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		}
		s.rest = append(s.rest, c)
	}
	return nil
}
