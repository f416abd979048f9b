// Package cypher implements the temporal Cypher subset of Sec 3: the USE
// clause with FOR SYSTEM_TIME interval specifiers (AS OF / FROM..TO /
// BETWEEN..AND / CONTAINED IN), MATCH over node and relationship patterns
// including variable-length hops, WHERE with id() predicates and
// APPLICATION_TIME filters, RETURN, CREATE / SET / DELETE write statements,
// and CALL for Aion's temporal procedures. The paper parses with javaCC;
// this implementation uses a hand-written lexer and recursive-descent
// parser producing an operator plan executed against the hybrid store.
package cypher

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokParam  // $name
	tokLParen // (
	tokRParen
	tokLBracket // [
	tokRBracket
	tokLBrace // {
	tokRBrace
	tokColon
	tokComma
	tokDot
	tokDotDot // ..
	tokDash   // -
	tokArrowR // ->
	tokArrowL // <-
	tokStar
	tokEq
	tokNeq // <>
	tokLt
	tokLte
	tokGt
	tokGte
	tokPlus
)

var keywords = map[string]bool{
	"USE": true, "GDB": true, "FOR": true, "SYSTEM_TIME": true, "AS": true,
	"OF": true, "FROM": true, "TO": true, "BETWEEN": true, "AND": true,
	"CONTAINED": true, "IN": true, "MATCH": true, "WHERE": true,
	"RETURN": true, "LIMIT": true, "CREATE": true, "SET": true,
	"DELETE": true, "DETACH": true, "CALL": true, "YIELD": true, "OR": true,
	"NOT": true, "TRUE": true, "FALSE": true, "NULL": true,
	"APPLICATION_TIME": true, "COUNT": true, "ORDER": true, "BY": true,
	"DESC": true, "ASC": true,
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) isKw(kw string) bool { return t.kind == tokKeyword && t.text == kw }

// lex tokenizes a query. Keywords are case-insensitive and normalized to
// upper case; identifiers keep their case.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < n && input[i+1] == '/':
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsDigit(rune(c)):
			start := i
			isFloat := false
			for i < n && (unicode.IsDigit(rune(input[i])) || input[i] == '.') {
				if input[i] == '.' {
					if i+1 < n && input[i+1] == '.' {
						break // ".." range operator
					}
					isFloat = true
				}
				i++
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind, input[start:i], start})
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case c == '\'' || c == '"':
			quote, start := c, i
			i++
			var sb strings.Builder
			for i < n && input[i] != quote {
				if input[i] == '\\' && i+1 < n {
					i++
				}
				sb.WriteByte(input[i])
				i++
			}
			if i >= n {
				return nil, fmt.Errorf("cypher: unterminated string at %d", i)
			}
			i++
			toks = append(toks, token{tokString, sb.String(), start})
		case c == '$':
			start := i
			i++
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			if i == start+1 {
				return nil, fmt.Errorf("cypher: empty parameter at %d", start)
			}
			toks = append(toks, token{tokParam, input[start+1 : i], start})
		default:
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch {
			case two == "->":
				toks = append(toks, token{tokArrowR, two, i})
				i += 2
			case two == "<-":
				toks = append(toks, token{tokArrowL, two, i})
				i += 2
			case two == "<>":
				toks = append(toks, token{tokNeq, two, i})
				i += 2
			case two == "<=":
				toks = append(toks, token{tokLte, two, i})
				i += 2
			case two == ">=":
				toks = append(toks, token{tokGte, two, i})
				i += 2
			case two == "..":
				toks = append(toks, token{tokDotDot, two, i})
				i += 2
			default:
				kind, ok := singleTok(c)
				if !ok {
					return nil, fmt.Errorf("cypher: unexpected character %q at %d", c, i)
				}
				toks = append(toks, token{kind, string(c), i})
				i++
			}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func singleTok(c byte) (tokenKind, bool) {
	switch c {
	case '(':
		return tokLParen, true
	case ')':
		return tokRParen, true
	case '[':
		return tokLBracket, true
	case ']':
		return tokRBracket, true
	case '{':
		return tokLBrace, true
	case '}':
		return tokRBrace, true
	case ':':
		return tokColon, true
	case ',':
		return tokComma, true
	case '.':
		return tokDot, true
	case '-':
		return tokDash, true
	case '*':
		return tokStar, true
	case '=':
		return tokEq, true
	case '<':
		return tokLt, true
	case '>':
		return tokGt, true
	case '+':
		return tokPlus, true
	}
	return 0, false
}
