package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"wetune/internal/faultinject"
)

// Canonical header keys and the shared Content-Type value. Assigning a
// canonical key straight into the header map skips Header.Set's
// canonicalisation, and a shared value slice skips its one-element
// allocation. net/http copies the values when WriteHeader clones the header,
// so a shared slice is never written.
const (
	contentTypeKey   = "Content-Type"
	contentLengthKey = "Content-Length"
)

var jsonContentType = []string{"application/json"}

// bufPool recycles request-body and response-encode buffers across requests;
// encoding into a buffer first also yields a Content-Length header, so small
// responses go out in one write instead of chunked transfer encoding.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// bufMaxPooled caps the buffers the pool retains: a one-off giant explain
// response must not pin its buffer for the rest of the process.
const bufMaxPooled = 1 << 20

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= bufMaxPooled {
		bufPool.Put(buf)
	}
}

// writeJSON renders v with status. Marshal failures answer the bare status
// with no body (nothing has been written yet, but the response shape is
// unknowable); write failures are ignored — headers are out the door and the
// connection is the client's problem.
func writeJSON(w http.ResponseWriter, status int, v any) {
	// Chaos point: fail a *successful* response's encoding. Gated on
	// status < 400 so the injected 500's own writeError → writeJSON call
	// cannot re-inject (it arrives with status 500).
	if status < 400 && faultinject.Fire(faultinject.EncodeError) {
		w.Header().Set(injectedFaultHeader, string(faultinject.EncodeError))
		writeError(w, http.StatusInternalServerError, apiError{
			Code:    codeInternal,
			Message: "injected fault: response encoding failed",
		})
		return
	}
	buf := getBuf()
	// Compact encoding, deliberately: indentation costs ~12% of server CPU
	// (encoding/json.appendIndent) and ~30% of response bytes at serving
	// rates. Pipe through `jq` for a human view.
	err := json.NewEncoder(buf).Encode(v)
	h := w.Header()
	h[contentTypeKey] = jsonContentType
	if err == nil {
		h[contentLengthKey] = []string{strconv.Itoa(buf.Len())}
	}
	w.WriteHeader(status)
	if err == nil {
		_, _ = w.Write(buf.Bytes())
	}
	putBuf(buf)
}
