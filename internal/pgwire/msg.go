package pgwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"auditdb/internal/server"
)

// Frontend (client → server) message type bytes.
const (
	msgQuery     = 'Q'
	msgParse     = 'P'
	msgBind      = 'B'
	msgDescribe  = 'D'
	msgExecute   = 'E'
	msgClose     = 'C'
	msgSync      = 'S'
	msgFlush     = 'H'
	msgTerminate = 'X'
	msgFuncCall  = 'F'
	msgCopyFail  = 'f'
	msgCopyDone  = 'c'
	msgCopyData  = 'd'
	msgPassword  = 'p'
)

// Backend (server → client) message type bytes.
const (
	msgAuth             = 'R'
	msgParameterStatus  = 'S'
	msgBackendKeyData   = 'K'
	msgReadyForQuery    = 'Z'
	msgRowDescription   = 'T'
	msgDataRow          = 'D'
	msgCommandComplete  = 'C'
	msgEmptyQuery       = 'I'
	msgErrorResponse    = 'E'
	msgNoticeResponse   = 'N'
	msgParseComplete    = '1'
	msgBindComplete     = '2'
	msgCloseComplete    = '3'
	msgNoData           = 'n'
	msgParamDescription = 't'
	msgPortalSuspended  = 's'
)

// Startup-phase request codes (the first packet has no type byte).
const (
	protoVersion3  = 196608   // 3.0
	sslRequest     = 80877103 // respond 'N': TLS is not offered
	gssEncRequest  = 80877104 // respond 'N'
	cancelRequest  = 80877102 // ignored: no out-of-band cancel support
	maxStartupLen  = 16 << 10 // startup packets are tiny
	maxStartupTrys = 4        // SSL, GSS, then the real startup at most
)

// readStartup reads one untyped startup-phase packet: int32 length
// (self-inclusive), int32 request code, payload.
func readStartup(r *bufio.Reader) (code int32, payload []byte, err error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	n := int32(binary.BigEndian.Uint32(head[:]))
	if n < 8 || n > maxStartupLen {
		return 0, nil, fmt.Errorf("pgwire: bad startup packet length %d", n)
	}
	body := make([]byte, n-4)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return int32(binary.BigEndian.Uint32(body[:4])), body[4:], nil
}

// readMessage reads one typed frontend message into the connection's
// reusable buffer and returns the payload as a slice of it: the payload
// is valid only until the next readMessage, so whatever a handler keeps
// — names, SQL, parameter text — it copies at the point it keeps it.
func (pc *pgConn) readMessage() (typ byte, payload []byte, err error) {
	head, err := pc.r.Peek(5)
	if err != nil {
		return 0, nil, err
	}
	typ = head[0]
	n := int(int32(binary.BigEndian.Uint32(head[1:]))) - 4
	if n < 0 || n+4 > server.MaxRequestLen {
		return 0, nil, fmt.Errorf("pgwire: bad message length %d for %q", n+4, typ)
	}
	pc.r.Discard(5)
	if pc.in = server.Recycle(pc.in); n > cap(pc.in) {
		pc.in = make([]byte, max(n, 4<<10))
	}
	payload = pc.in[:n]
	if _, err := io.ReadFull(pc.r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// payloadReader decodes a frontend message payload.
type payloadReader struct {
	b   []byte
	pos int
	err error
}

func (p *payloadReader) fail() {
	if p.err == nil {
		p.err = fmt.Errorf("pgwire: truncated message payload")
	}
}

// cstr reads a NUL-terminated string as a view of the payload; a
// caller that keeps it converts it to a string (a copy) where it does.
func (p *payloadReader) cstr() []byte {
	if p.err != nil {
		return nil
	}
	if n := bytes.IndexByte(p.b[p.pos:], 0); n >= 0 {
		s := p.b[p.pos : p.pos+n]
		p.pos += n + 1
		return s
	}
	p.fail()
	return nil
}

func (p *payloadReader) byte() byte {
	if p.err != nil || p.pos >= len(p.b) {
		p.fail()
		return 0
	}
	v := p.b[p.pos]
	p.pos++
	return v
}

func (p *payloadReader) int16() int16 {
	if p.err != nil || p.pos+2 > len(p.b) {
		p.fail()
		return 0
	}
	v := int16(binary.BigEndian.Uint16(p.b[p.pos:]))
	p.pos += 2
	return v
}

func (p *payloadReader) int32() int32 {
	if p.err != nil || p.pos+4 > len(p.b) {
		p.fail()
		return 0
	}
	v := int32(binary.BigEndian.Uint32(p.b[p.pos:]))
	p.pos += 4
	return v
}

// lenBytes reads an int32 length followed by that many bytes; a length
// of -1 reports a NULL (nil slice, null=true).
func (p *payloadReader) lenBytes() (data []byte, null bool) {
	n := p.int32()
	if p.err != nil {
		return nil, false
	}
	if n == -1 {
		return nil, true
	}
	if n < 0 || p.pos+int(n) > len(p.b) {
		p.fail()
		return nil, false
	}
	data = p.b[p.pos : p.pos+int(n)]
	p.pos += int(n)
	return data, false
}
