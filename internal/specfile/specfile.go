// Package specfile is the shared declarative-spec front end: a
// dependency-free YAML-subset/JSON decoder used by every spec-shaped
// file in the tree (internal/workspec workload specs, internal/hypo
// hypothesis specs). A spec file is block mappings and sequences by
// indentation, "- " list items, inline flow lists ([a, b]), quoted or
// bare scalars, and "#" comments; anchors, multi-document streams, and
// multiline strings are deliberately out (see DESIGN.md §13 for the
// grammar). JSON input (first non-space byte '{') decodes through the
// same strict path, so the two forms are interchangeable.
package specfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// ParseError is a syntax-level rejection, addressed by source line.
// Prefix names the spec dialect ("workspec", "hypo") so errors read in
// the consumer's vocabulary.
type ParseError struct {
	Prefix string
	Line   int
	Msg    string
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("%s: line %d: %s", label(e.Prefix), e.Line, e.Msg)
	}
	return label(e.Prefix) + ": " + e.Msg
}

// label is the error prefix for a spec dialect ("specfile" when unset).
func label(prefix string) string {
	if prefix == "" {
		return "specfile"
	}
	return prefix
}

// SpecError is one semantic validation finding, addressed by a dotted
// path into the spec ("cohorts[2].arrival.rate_per_sec"). Prefix names
// the spec dialect, as in ParseError.
type SpecError struct {
	Prefix string
	Path   string
	Msg    string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("%s: %s: %s", label(e.Prefix), e.Path, e.Msg)
}

// ValidationError aggregates every SpecError found in one pass, so a
// rejected spec names all its problems at once. Add collects findings
// under Prefix; Err returns the error, or nil when there are none.
type ValidationError struct {
	Prefix string
	Errs   []*SpecError
}

// Add records one finding at path.
func (e *ValidationError) Add(path, format string, args ...any) {
	e.Errs = append(e.Errs, &SpecError{Prefix: e.Prefix, Path: path, Msg: fmt.Sprintf(format, args...)})
}

// Err returns e when it holds any finding, nil otherwise.
func (e *ValidationError) Err() error {
	if len(e.Errs) == 0 {
		return nil
	}
	return e
}

func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Errs))
	for i, s := range e.Errs {
		msgs[i] = s.Error()
	}
	return strings.Join(msgs, "\n")
}

// Decode reads a spec from YAML-subset or JSON bytes (JSON when the
// first non-space byte is '{'), then decodes the tree strictly into
// out — unknown keys are a *ParseError, not a silent skip. prefix
// labels errors ("workspec", "hypo"). Semantic validation stays with
// the caller; Decode only settles syntax and shape.
func Decode(data []byte, prefix string, out any) error {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var tree any
	if len(trimmed) > 0 && trimmed[0] == '{' {
		if err := json.Unmarshal(data, &tree); err != nil {
			return &ParseError{Prefix: prefix, Msg: "bad JSON: " + err.Error()}
		}
	} else {
		var err error
		tree, err = parseYAML(data, prefix)
		if err != nil {
			return err
		}
	}
	canonical, err := json.Marshal(tree)
	if err != nil {
		return &ParseError{Prefix: prefix, Msg: err.Error()}
	}
	dec := json.NewDecoder(bytes.NewReader(canonical))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return &ParseError{Prefix: prefix, Msg: decodeMsg(err)}
	}
	return nil
}

// DecodeFile loads path and decodes it, wrapping errors with the path.
func DecodeFile(path, prefix string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := Decode(data, prefix, out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// decodeMsg rewrites encoding/json's strict-mode errors into spec
// vocabulary ("unknown field" instead of Go struct talk).
func decodeMsg(err error) string {
	msg := err.Error()
	if strings.Contains(msg, "unknown field") {
		return strings.TrimPrefix(msg, "json: ")
	}
	return "spec shape: " + msg
}

// ---------------------------------------------------------------------
// YAML-subset parser: indentation-structured mappings and sequences
// over scalar leaves, producing a JSON-compatible any-tree.
// ---------------------------------------------------------------------

type yline struct {
	num    int
	indent int
	text   string
}

type yparser struct {
	prefix string
	lines  []yline
	i      int
}

func parseYAML(data []byte, prefix string) (any, error) {
	var lines []yline
	for num, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimRight(raw, " \r")
		text := stripComment(line)
		trimmed := strings.TrimLeft(text, " ")
		if trimmed == "" {
			continue
		}
		indent := len(text) - len(trimmed)
		if strings.ContainsRune(text[:indent], '\t') || strings.HasPrefix(trimmed, "\t") {
			return nil, &ParseError{Prefix: prefix, Line: num + 1, Msg: "tabs are not allowed in indentation"}
		}
		lines = append(lines, yline{num: num + 1, indent: indent, text: trimmed})
	}
	if len(lines) == 0 {
		return nil, &ParseError{Prefix: prefix, Msg: "empty spec"}
	}
	p := &yparser{prefix: prefix, lines: lines}
	node, err := p.parseNode(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.i < len(p.lines) {
		l := p.lines[p.i]
		return nil, p.errf(l.num, "unexpected de-indented content %q", l.text)
	}
	return node, nil
}

func (p *yparser) errf(line int, format string, args ...any) *ParseError {
	return &ParseError{Prefix: p.prefix, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// stripComment removes a trailing "#" comment that is not inside a
// quoted string (a "#" must be at line start or preceded by a space to
// count, matching YAML's rule).
func stripComment(line string) string {
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || line[i-1] == ' '):
			return line[:i]
		}
	}
	return line
}

func (p *yparser) parseNode(indent int) (any, error) {
	l := p.lines[p.i]
	if l.indent != indent {
		return nil, p.errf(l.num, "bad indentation (got %d, want %d)", l.indent, indent)
	}
	if isItem(l.text) {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func isItem(text string) bool { return text == "-" || strings.HasPrefix(text, "- ") }

func (p *yparser) parseSequence(indent int) (any, error) {
	var out []any
	for p.i < len(p.lines) {
		l := p.lines[p.i]
		if l.indent != indent || !isItem(l.text) {
			break
		}
		rest := strings.TrimLeft(strings.TrimPrefix(l.text, "-"), " ")
		if rest == "" {
			// "-" alone: the item is the nested block on following lines.
			p.i++
			if p.i >= len(p.lines) || p.lines[p.i].indent <= indent {
				return nil, p.errf(l.num, "empty sequence item")
			}
			v, err := p.parseNode(p.lines[p.i].indent)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		// "- key: v" starts an inline mapping (or scalar) whose entries
		// continue on following lines indented past the dash.
		inner := indent + (len(l.text) - len(rest))
		if keyOf(rest) != "" {
			p.lines[p.i] = yline{num: l.num, indent: inner, text: rest}
			v, err := p.parseMapping(inner)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		p.i++
		v, err := p.parseScalar(rest, l.num)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// keyOf returns the mapping key when text is a "key:" or "key: value"
// entry with a bare (unquoted, bracket-free) key, else "".
func keyOf(text string) string {
	idx := strings.Index(text, ":")
	if idx <= 0 {
		return ""
	}
	if idx+1 < len(text) && text[idx+1] != ' ' {
		return "" // "a:b" is a scalar, not an entry
	}
	key := strings.TrimSpace(text[:idx])
	if key == "" || strings.ContainsAny(key, "'\"[]{}#") {
		return ""
	}
	return key
}

func (p *yparser) parseMapping(indent int) (any, error) {
	out := map[string]any{}
	for p.i < len(p.lines) {
		l := p.lines[p.i]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, p.errf(l.num, "unexpected indentation under mapping (got %d, want %d)", l.indent, indent)
		}
		if isItem(l.text) {
			break
		}
		key := keyOf(l.text)
		if key == "" {
			return nil, p.errf(l.num, "expected \"key: value\", got %q", l.text)
		}
		if _, dup := out[key]; dup {
			return nil, p.errf(l.num, "duplicate key %q", key)
		}
		after := strings.TrimSpace(l.text[strings.Index(l.text, ":")+1:])
		p.i++
		if after != "" {
			v, err := p.parseScalar(after, l.num)
			if err != nil {
				return nil, err
			}
			out[key] = v
			continue
		}
		// Bare "key:": the value is the nested block — deeper-indented
		// lines, or a sequence whose dashes sit at the key's own indent.
		if p.i < len(p.lines) && (p.lines[p.i].indent > indent ||
			(p.lines[p.i].indent == indent && isItem(p.lines[p.i].text))) {
			v, err := p.parseNode(p.lines[p.i].indent)
			if err != nil {
				return nil, err
			}
			out[key] = v
			continue
		}
		out[key] = nil
	}
	return out, nil
}

func (p *yparser) parseScalar(s string, line int) (any, error) {
	switch {
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return nil, p.errf(line, "unterminated flow list %q", s)
		}
		body := strings.TrimSpace(s[1 : len(s)-1])
		if body == "" {
			return []any{}, nil
		}
		var out []any
		for _, part := range strings.Split(body, ",") {
			v, err := p.parseScalar(strings.TrimSpace(part), line)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case strings.HasPrefix(s, `"`):
		v, err := strconv.Unquote(s)
		if err != nil {
			return nil, p.errf(line, "bad quoted string %s", s)
		}
		return v, nil
	case strings.HasPrefix(s, "'"):
		if len(s) < 2 || !strings.HasSuffix(s, "'") {
			return nil, p.errf(line, "bad quoted string %s", s)
		}
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	case s == "true":
		return true, nil
	case s == "false":
		return false, nil
	case s == "null" || s == "~":
		return nil, nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}
