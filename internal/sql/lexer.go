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

// lexer splits SQL text into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	// Presize for the common token density (~1 token per 4 source bytes);
	// growing a nil slice through append re-copies the prefix several times
	// per query, which dominated the lexer's allocation profile.
	l := &lexer{src: src, toks: make([]token, 0, len(src)/4+8)}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tkEOF, "")
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			l.lexWord()
		case c >= '0' && c <= '9':
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '"' || c == '`':
			if err := l.lexQuotedIdent(c); err != nil {
				return nil, err
			}
		case c == '?':
			l.emit(tkParam, "?")
			l.pos++
		default:
			if err := l.lexSymbol(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) emit(k tokenKind, text string) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: l.pos})
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// Line comments.
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
}

// Identifiers outside quotes are ASCII: a byte >= 0x80 there is an error,
// never half of a letter.
func isIdentStart(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || '0' <= c && c <= '9' || c == '$'
}

// errAt is the lexer's *ParseError at byte offset pos.
func errAt(pos int, format string, args ...any) error {
	return &ParseError{Offset: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) lexWord() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	if canon, ok := keywordLookup(word); ok {
		l.toks = append(l.toks, token{kind: tkKeyword, text: canon, pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tkIdent, text: word, pos: start})
	}
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

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	l.toks = append(l.toks, token{kind: tkNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	// Fast path: scan for the closing quote; a literal with no doubled-quote
	// escape is sliced straight out of the source, no Builder copy.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				return l.lexStringEscaped(start)
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tkString, text: l.src[start+1 : l.pos-1], pos: start})
			return nil
		}
		l.pos++
	}
	return errAt(start, "unterminated string literal")
}

// lexStringEscaped resumes a string literal at its first doubled-quote
// escape (l.pos is on the first of the two quotes); only this rare path
// pays the Builder copy.
func (l *lexer) lexStringEscaped(start int) error {
	var b strings.Builder
	b.WriteString(l.src[start+1 : l.pos])
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// a doubled quote escapes a quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tkString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return errAt(start, "unterminated string literal")
}

func (l *lexer) lexQuotedIdent(quote byte) error {
	start := l.pos
	l.pos++
	// No escape sequences inside quoted identifiers: always a source slice.
	for l.pos < len(l.src) {
		if l.src[l.pos] == quote {
			l.pos++
			l.toks = append(l.toks, token{kind: tkIdent, text: l.src[start+1 : l.pos-1], pos: start})
			return nil
		}
		l.pos++
	}
	return errAt(start, "unterminated quoted identifier")
}

var twoCharSymbols = map[string]bool{"<>": true, "!=": true, "<=": true, ">=": true}

func (l *lexer) lexSymbol() error {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		if twoCharSymbols[two] {
			l.emit(tkSymbol, two)
			l.pos += 2
			return nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '.', '*', '+', '-', '/', '=', '<', '>', ';':
		// Slice the source rather than string(c): guaranteed allocation-free.
		l.emit(tkSymbol, l.src[l.pos:l.pos+1])
		l.pos++
		return nil
	}
	_, size := utf8.DecodeRuneInString(l.src[l.pos:])
	return errAt(l.pos, "unexpected character %q", l.src[l.pos:l.pos+size])
}
