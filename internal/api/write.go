package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// encoder is a pooled response buffer with the JSON encoder that fills it.
// A buffer that grew past 64 KiB (a long log or report) is dropped, not kept.
type encoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encoders = sync.Pool{New: func() any {
	e := new(encoder)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// WriteJSON sends v as the whole response: one line of compact JSON, encoded
// into a pooled buffer before anything is written, then the status line with
// Content-Length and the body in a single Write. A value that does not encode
// becomes a 500 internal envelope instead of a truncated document.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	e := encoders.Get().(*encoder)
	if err := e.enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		_ = e.enc.Encode(ErrorBody{Error: "encoding response: " + err.Error(), Code: CodeInternal})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(e.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes()) // the status line is out; a failed write means the client left
	if e.buf.Cap() <= 64<<10 {
		e.buf.Reset()
		encoders.Put(e)
	}
}

// WriteError sends the JSON error envelope: the human-readable message plus
// the stable machine-readable code clients and routers dispatch on.
func WriteError(w http.ResponseWriter, status int, code ErrorCode, msg string) {
	WriteJSON(w, status, ErrorBody{Error: msg, Code: code})
}
