package sql

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString
	tkSymbol // punctuation and operators
	tkParam  // ?
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased, identifiers as written
	pos  int
}

// keywords is an open-addressed table of the canonical (interned) keyword
// strings at keywordSlot of their keywordCode, so classifying a word never
// allocates and costs a multiply and a probe or two: the lexer classifies
// every word it reads and the printer every identifier it prints.
var keywords [128]struct {
	code uint64
	text string
}

func keywordSlot(code uint64) int { return int(code * 0x9E3779B97F4A7C15 >> 57) }

func init() {
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "AND", "OR",
		"NOT", "IN", "EXISTS", "IS", "NULL",
		"DISTINCT", "AS", "JOIN", "INNER", "LEFT",
		"RIGHT", "OUTER", "CROSS", "ON", "GROUP",
		"BY", "HAVING", "ORDER", "ASC", "DESC",
		"LIMIT", "UNION", "ALL", "TRUE", "FALSE",
		"BETWEEN", "LIKE", "CASE", "WHEN", "THEN",
		"ELSE", "END",
	} {
		code, _ := keywordCode(k)
		i := keywordSlot(code)
		for keywords[i].code != 0 {
			i = (i + 1) % len(keywords)
		}
		keywords[i].code, keywords[i].text = code, k
	}
}

// lex appends the tokens of src, ending with an EOF token, to dst and returns
// the extended slice. Parse lexes into a buffer on its own stack, so the
// token slice of a typical query is never allocated; nothing here keeps dst
// anywhere but in the result.
//
// Lexing ends early, with an EOF token, once more than MaxNesting parentheses
// are open. Every open parenthesis nests the parser one level deeper, so it
// has refused the statement before it reads that far, and a 1 MiB body of
// parentheses costs a few hundred tokens instead of a million.
//
// It also ends at the first token past limit tokens: the tokens before it
// are returned, ending with an EOF token at its offset, beside a *ParseError
// there. Any other error returns no tokens.
func lex(dst []token, src string, limit int) ([]token, error) {
	pos, open, n := 0, 0, 0
	for {
		pos = skipSpace(src, pos)
		if pos >= len(src) {
			return append(dst, token{kind: tkEOF, pos: pos}), nil
		}
		t, end, err := scanToken(src, pos)
		if err != nil {
			return nil, err
		}
		if n++; n > limit {
			return append(dst, token{kind: tkEOF, pos: t.pos}), errAt(t.pos, "statement has more than %d tokens", limit)
		}
		dst = append(dst, t)
		pos = end
		if t.kind == tkSymbol && t.text == ")" {
			open--
		} else if t.kind == tkSymbol && t.text == "(" {
			if open++; open > MaxNesting {
				return append(dst, token{kind: tkEOF, pos: pos}), nil
			}
		}
	}
}

// scanToken reads the token that starts at src[pos] and returns it with the
// offset just past it.
func scanToken(src string, pos int) (token, int, error) {
	c := src[pos]
	switch {
	case isIdentStart(c):
		return scanWord(src, pos)
	case c >= '0' && c <= '9':
		return scanNumber(src, pos)
	case c == '\'':
		return scanString(src, pos)
	case c == '"' || c == '`':
		return scanQuotedIdent(src, pos, c)
	case c == '?':
		return token{kind: tkParam, text: "?", pos: pos}, pos + 1, nil
	}
	return scanSymbol(src, pos)
}

func skipSpace(src string, pos int) int {
	for pos < len(src) {
		c := src[pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			pos++
			continue
		}
		// Line comments.
		if c == '-' && pos+1 < len(src) && src[pos+1] == '-' {
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
			continue
		}
		break
	}
	return pos
}

// Identifiers outside quotes are ASCII: a byte >= 0x80 there is an error,
// never half of a letter.
func isIdentStart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || '0' <= c && c <= '9' || c == '$'
}

// errAt is a *ParseError at byte offset pos.
func errAt(pos int, format string, args ...any) error {
	return &ParseError{Offset: pos, Msg: fmt.Sprintf(format, args...)}
}

func scanWord(src string, start int) (token, int, error) {
	end := start
	for end < len(src) && isIdentPart(src[end]) {
		end++
	}
	word := src[start:end]
	if canon, ok := keywordLookup(word); ok {
		return token{kind: tkKeyword, text: canon, pos: start}, end, nil
	}
	return token{kind: tkIdent, text: word, pos: start}, end, nil
}

// keywordLookup classifies word case-insensitively against the keyword table;
// the returned canonical string is the interned table entry, never a copy.
func keywordLookup(word string) (string, bool) {
	code, ok := keywordCode(word)
	if !ok {
		return "", false
	}
	for i := keywordSlot(code); keywords[i].code != 0; i = (i + 1) % len(keywords) {
		if keywords[i].code == code {
			return keywords[i].text, true
		}
	}
	return "", false
}

// keywordCode packs word, upper-cased, into one integer when it is a
// non-empty run of at most eight ASCII letters, the shape of every keyword
// ("DISTINCT" is the longest); ok is false for any other word.
func keywordCode(word string) (code uint64, ok bool) {
	if word == "" || len(word) > 8 {
		return 0, false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if c > 'Z' || c < 'A' {
			return 0, false // digits/underscore: never a keyword
		}
		code = code<<8 | uint64(c)
	}
	return code, true
}

func scanNumber(src string, start int) (token, int, error) {
	end := start
	seenDot := false
	for end < len(src) {
		c := src[end]
		if c >= '0' && c <= '9' {
			end++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			end++
			continue
		}
		break
	}
	return token{kind: tkNumber, text: src[start:end], pos: start}, end, nil
}

func scanString(src string, start int) (token, int, error) {
	// Fast path: scan for the closing quote; a literal with no doubled-quote
	// escape is sliced straight out of the source, no Builder copy.
	for pos := start + 1; pos < len(src); pos++ {
		if src[pos] == '\'' {
			if pos+1 < len(src) && src[pos+1] == '\'' {
				return scanStringEscaped(src, start, pos)
			}
			return token{kind: tkString, text: src[start+1 : pos], pos: start}, pos + 1, nil
		}
	}
	return token{}, 0, errAt(start, "unterminated string literal")
}

// scanStringEscaped resumes a string literal at its first doubled-quote
// escape (src[pos] is the first of the two quotes); only this rare path pays
// the Builder copy.
func scanStringEscaped(src string, start, pos int) (token, int, error) {
	var b strings.Builder
	b.WriteString(src[start+1 : pos])
	for pos < len(src) {
		c := src[pos]
		if c == '\'' {
			// a doubled quote escapes a quote.
			if pos+1 < len(src) && src[pos+1] == '\'' {
				b.WriteByte('\'')
				pos += 2
				continue
			}
			return token{kind: tkString, text: b.String(), pos: start}, pos + 1, nil
		}
		b.WriteByte(c)
		pos++
	}
	return token{}, 0, errAt(start, "unterminated string literal")
}

func scanQuotedIdent(src string, start int, quote byte) (token, int, error) {
	// No escape sequences inside quoted identifiers: always a source slice.
	for pos := start + 1; pos < len(src); pos++ {
		if src[pos] == quote {
			return token{kind: tkIdent, text: src[start+1 : pos], pos: start}, pos + 1, nil
		}
	}
	return token{}, 0, errAt(start, "unterminated quoted identifier")
}

func scanSymbol(src string, pos int) (token, int, error) {
	if pos+1 < len(src) {
		switch two := src[pos : pos+2]; two {
		case "<>", "!=", "<=", ">=":
			return token{kind: tkSymbol, text: two, pos: pos}, pos + 2, nil
		}
	}
	switch src[pos] {
	case '(', ')', ',', '.', '*', '+', '-', '/', '=', '<', '>', ';':
		// Slice the source rather than string(c): guaranteed allocation-free.
		return token{kind: tkSymbol, text: src[pos : pos+1], pos: pos}, pos + 1, nil
	}
	_, size := utf8.DecodeRuneInString(src[pos:])
	return token{}, 0, errAt(pos, "unexpected character %q", src[pos:pos+size])
}
