// Package lexer tokenizes the SQL dialect understood by the engine,
// including the auditing DDL extensions from the paper (CREATE AUDIT
// EXPRESSION, CREATE TRIGGER ... ON ACCESS TO, NOTIFY).
//
// The tokenizer is the pull-based Scanner, which walks the input bytes
// without materializing tokens or strings; the parser and the
// normalizer both drive it directly.
package lexer

// TokenKind classifies tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp
)

// String names the token kind for error messages.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokKeyword:
		return "keyword"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokOp:
		return "operator"
	default:
		return "unknown"
	}
}
