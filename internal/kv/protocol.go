package kv

import (
	"fmt"
)

// Wire protocol (one request or response per TCP segment):
//
//	[0:2]  BE16 total message length (the generic length header the
//	       copying hint parses)
//	[2]    opcode (request) or status (response)
//	GET request:  [3] keyLen, [4:4+keyLen] key
//	SET request:  [3] keyLen, [4:4+keyLen] key, [.. +2] BE16 valLen, value
//	GET response: [3:5] BE16 valLen, value  (status = StatusOK/StatusMiss)
//	SET response: nothing beyond the status byte

// Opcodes and statuses.
const (
	OpGet      = 1
	OpSet      = 2
	StatusOK   = 0
	StatusMiss = 1
)

// GetRequestSize returns the wire size of a GET request for a keyLen-byte
// key.
func GetRequestSize(keyLen int) int { return 4 + keyLen }

// SetRequestSize returns the wire size of a SET request for a keyLen-byte
// key and a valLen-byte value.
func SetRequestSize(keyLen, valLen int) int { return 6 + keyLen + valLen }

// EncodeGet builds a GET request.
func EncodeGet(key string) []byte {
	n := GetRequestSize(len(key))
	b := make([]byte, n)
	putLen(b, n)
	b[2] = OpGet
	b[3] = byte(len(key))
	copy(b[4:], key)
	return b
}

// EncodeSet builds a SET request.
func EncodeSet(key string, value []byte) []byte {
	n := SetRequestSize(len(key), len(value))
	b := make([]byte, n)
	putLen(b, n)
	b[2] = OpSet
	b[3] = byte(len(key))
	copy(b[4:], key)
	off := 4 + len(key)
	b[off] = byte(len(value) >> 8)
	b[off+1] = byte(len(value))
	copy(b[off+2:], value)
	return b
}

// GetResponseSize returns the wire size of a GET response carrying valLen
// bytes.
func GetResponseSize(valLen int) int { return 5 + valLen }

// SetResponseSize is the wire size of a SET acknowledgement.
const SetResponseSize = 3

// EncodeGetResponse builds a GET response.
func EncodeGetResponse(value []byte, hit bool) []byte {
	if !hit {
		b := make([]byte, 5)
		putLen(b, 5)
		b[2] = StatusMiss
		return b
	}
	n := GetResponseSize(len(value))
	b := make([]byte, n)
	putLen(b, n)
	b[2] = StatusOK
	b[3] = byte(len(value) >> 8)
	b[4] = byte(len(value))
	copy(b[5:], value)
	return b
}

// EncodeSetResponse builds a SET acknowledgement.
func EncodeSetResponse() []byte {
	b := make([]byte, SetResponseSize)
	putLen(b, SetResponseSize)
	b[2] = StatusOK
	return b
}

func putLen(b []byte, n int) {
	b[0] = byte(n >> 8)
	b[1] = byte(n)
}

// Request is a decoded client request.
type Request struct {
	Op    byte
	Key   string
	Value []byte
}

// DecodeRequest parses a request frame.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) < 4 {
		return Request{}, fmt.Errorf("kv: short request (%d bytes)", len(b))
	}
	total := int(b[0])<<8 | int(b[1])
	if total > len(b) {
		return Request{}, fmt.Errorf("kv: truncated request (%d of %d bytes)", len(b), total)
	}
	op := b[2]
	kl := int(b[3])
	if 4+kl > total {
		return Request{}, fmt.Errorf("kv: bad key length %d", kl)
	}
	r := Request{Op: op, Key: string(b[4 : 4+kl])}
	switch op {
	case OpGet:
		return r, nil
	case OpSet:
		off := 4 + kl
		if off+2 > total {
			return Request{}, fmt.Errorf("kv: SET missing value length")
		}
		vl := int(b[off])<<8 | int(b[off+1])
		if off+2+vl > total {
			return Request{}, fmt.Errorf("kv: SET truncated value (%d)", vl)
		}
		r.Value = b[off+2 : off+2+vl]
		return r, nil
	}
	return Request{}, fmt.Errorf("kv: unknown opcode %d", op)
}

// DecodeResponse parses a response frame, returning status and value.
func DecodeResponse(b []byte) (status byte, value []byte, err error) {
	if len(b) < 3 {
		return 0, nil, fmt.Errorf("kv: short response")
	}
	status = b[2]
	if len(b) >= 5 {
		vl := int(b[3])<<8 | int(b[4])
		if 5+vl <= len(b) {
			value = b[5 : 5+vl]
		}
	}
	return status, value, nil
}
