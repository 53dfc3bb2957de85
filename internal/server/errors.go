package server

import (
	"errors"
	"net/http"
	"strconv"

	"wetune/internal/sql"
)

// apiError is the uniform error body: {"error": {"code", "message", ...}}.
// Position is set for parse errors (byte offset into the submitted SQL).
type apiError struct {
	Code     string `json:"code"`
	Message  string `json:"message"`
	Position *int   `json:"position,omitempty"`
}

type errorBody struct {
	Error apiError `json:"error"`
}

// Error codes; the HTTP status carries the class, the code the cause.
const (
	codeBadRequest       = "bad_request"       // 400: malformed JSON / missing fields
	codeUnknownApp       = "unknown_app"       // 400: "app" names no served schema
	codeTooLarge         = "too_large"         // 413: body or batch over the limit
	codeInvalidSQL       = "invalid_sql"       // 422: SQL failed to parse or plan
	codeOverloaded       = "overloaded"        // 429: admission queue full
	codeInternal         = "internal"          // 500: recovered handler panic
	codeShuttingDown     = "shutting_down"     // 503: drain in progress
	codeDeadlineExceeded = "deadline_exceeded" // 504: deadline spent queueing or searching
)

// writeError renders the uniform error body.
func writeError(w http.ResponseWriter, status int, e apiError) {
	writeJSON(w, status, errorBody{Error: e})
}

// writeOverloaded is the 429 path: Retry-After tells a well-behaved client
// when the queue is worth retrying.
func writeOverloaded(w http.ResponseWriter, retryAfter int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeError(w, http.StatusTooManyRequests, apiError{
		Code:    codeOverloaded,
		Message: "admission queue full; retry later",
	})
}

// sqlErr maps an optimizer front-end failure (parse or plan) onto the 422
// body, surfacing the parse position when the parser provides one.
func sqlErr(err error) apiError {
	e := apiError{Code: codeInvalidSQL, Message: err.Error()}
	var pe *sql.ParseError
	if errors.As(err, &pe) {
		pos := pe.Offset
		e.Position = &pos
	}
	return e
}
