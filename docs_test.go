package ultrabeam_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// The documents whose backticked Go identifiers must name live code.
var checkedDocs = []string{"DESIGN.md", "README.md"}

// TestDocsNameLiveCode holds DESIGN.md and README.md to the tree: every
// backticked Go-shaped identifier resolves to a declaration somewhere in
// the repository (any package, test files included, locals and fields
// too), a package-qualified one to a top-level declaration of that package
// (the standard library's included), and every DESIGN §5 invariance family
// names at least one live Test function.
//
// The shape rule: a token is Go-shaped when it is mixedCase or a dotted
// chain with a mixedCase part. It skips all-caps tokens (assembly
// mnemonics, macros, environment variables), snake_case and kebab-case
// tokens (JSON keys, flags, header names) and Go builtins; a number, a file
// name or a lowercase word is not Go-shaped. A token followed by `*` names
// a family by prefix.
func TestDocsNameLiveCode(t *testing.T) {
	idx := indexDecls(t, ".")
	for _, doc := range checkedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range docRefs(string(src)) {
			if msg := idx.resolve(ref); msg != "" {
				t.Errorf("%s:%d: `%s` %s", doc, ref.line, ref.token, msg)
			}
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	families := invarianceFamilies(string(design))
	if len(families) == 0 {
		t.Fatal("DESIGN.md has no §5 invariance family list")
	}
	for _, fam := range families {
		named := false
		for _, ref := range docRefs(fam) {
			if strings.HasPrefix(ref.token, "Test") && idx.resolve(ref) == "" {
				named = true
			}
		}
		if !named {
			t.Errorf("DESIGN §5 family names no live Test function: %.80s", fam)
		}
	}
}

// docRef is one Go-shaped token of a backticked span.
type docRef struct {
	token  string
	parts  []string
	prefix bool // followed by `*`: names declarations by prefix
	line   int
}

var (
	fence    = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```[^\\n]*$")
	codeSpan = regexp.MustCompile("`([^`]+)`")
	piece    = regexp.MustCompile(`[A-Za-z0-9_.\-]+`)
)

// docRefs returns the Go-shaped tokens of a markdown text's inline code
// spans, fenced blocks excluded.
func docRefs(md string) []docRef {
	md = fence.ReplaceAllStringFunc(md, func(b string) string {
		return strings.Repeat("\n", strings.Count(b, "\n"))
	})
	var refs []docRef
	for _, span := range codeSpan.FindAllStringSubmatchIndex(md, -1) {
		text := md[span[2]:span[3]]
		line := 1 + strings.Count(md[:span[2]], "\n")
		for _, loc := range piece.FindAllStringIndex(text, -1) {
			tok := strings.Trim(text[loc[0]:loc[1]], ".")
			if tok == "" || strings.ContainsAny(tok, "_-") {
				continue // snake_case or kebab-case: JSON keys, flags, headers
			}
			parts := strings.Split(tok, ".")
			if !goShaped(parts) {
				continue
			}
			refs = append(refs, docRef{
				token:  tok,
				parts:  parts,
				prefix: loc[1] < len(text) && text[loc[1]] == '*',
				line:   line + strings.Count(text[:loc[0]], "\n"),
			})
		}
	}
	return refs
}

func goShaped(parts []string) bool {
	shaped := false
	for _, p := range parts {
		if p == "" || unicode.IsDigit(rune(p[0])) {
			return false // a number or a file name such as u13.5
		}
		if mixedCase(p) {
			shaped = true
		}
	}
	return shaped && !(len(parts) == 1 && builtins[parts[0]])
}

func mixedCase(s string) bool {
	return strings.IndexFunc(s, unicode.IsUpper) >= 0 && strings.IndexFunc(s, unicode.IsLower) >= 0
}

// skipped reports the tokens the shape rule leaves alone inside a chain.
func skipped(s string) bool {
	return builtins[s] || strings.IndexFunc(s, unicode.IsLower) < 0
}

var builtins = map[string]bool{}

func init() {
	for _, b := range strings.Fields(`any append bool byte cap clear close complex complex64
		complex128 comparable copy delete error false float32 float64 imag int int8 int16
		int32 int64 iota len make max min new nil panic print println real recover rune
		string true uint uint8 uint16 uint32 uint64 uintptr`) {
		builtins[b] = true
	}
}

// invarianceFamilies returns the bullets of DESIGN.md's §5.
func invarianceFamilies(md string) []string {
	start := regexp.MustCompile(`(?m)^## 5\. .*$`).FindStringIndex(md)
	if start == nil {
		return nil
	}
	sec := md[start[1]:]
	if end := regexp.MustCompile(`(?m)^## `).FindStringIndex(sec); end != nil {
		sec = sec[:end[0]]
	}
	var fams []string
	for _, b := range regexp.MustCompile(`(?m)^- `).Split(sec, -1)[1:] {
		fams = append(fams, strings.TrimSpace(b))
	}
	return fams
}

// declIndex is every name the repository declares.
type declIndex struct {
	all     map[string]bool            // every declared name: top level, methods, fields, params, locals
	pkgs    map[string]map[string]bool // package name → its top-level names
	imports map[string]string          // import name → path, for standard-library qualifiers
	std     map[string]map[string]bool // parsed lazily
}

func indexDecls(t *testing.T, root string) *declIndex {
	idx := &declIndex{all: map[string]bool{}, pkgs: map[string]map[string]bool{},
		imports: map[string]string{}, std: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		idx.addFile(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func (idx *declIndex) addFile(f *ast.File) {
	top := idx.pkgs[f.Name.Name]
	if top == nil {
		top = map[string]bool{}
		idx.pkgs[f.Name.Name] = top
	}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if !strings.Contains(strings.Split(path, "/")[0], ".") && !strings.HasPrefix(path, "ultrabeam") {
			idx.imports[name] = path
		}
	}
	for name := range topLevel(f) {
		top[name] = true
	}
	add := func(ids ...*ast.Ident) {
		for _, id := range ids {
			if id != nil {
				idx.all[id.Name] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			add(n.Name)
		case *ast.TypeSpec:
			add(n.Name)
		case *ast.ValueSpec:
			add(n.Names...)
		case *ast.Field:
			add(n.Names...)
		case *ast.LabeledStmt:
			add(n.Label)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						add(id)
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						add(id)
					}
				}
			}
		}
		return true
	})
}

// topLevel returns a file's package-level names: functions, types,
// constants and variables (methods are reached through their type).
func topLevel(f *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names[id.Name] = true
					}
				}
			}
		}
	}
	return names
}

// stdDecls parses a standard-library package's top-level names.
func (idx *declIndex) stdDecls(path string) map[string]bool {
	if names, ok := idx.std[path]; ok {
		return names
	}
	names := map[string]bool{}
	if pkg, err := build.Default.Import(path, "", build.FindOnly); err == nil {
		files, _ := filepath.Glob(filepath.Join(pkg.Dir, "*.go"))
		fset := token.NewFileSet()
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			if f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution); err == nil {
				for name := range topLevel(f) {
					names[name] = true
				}
			}
		}
	}
	idx.std[path] = names
	return names
}

// resolve returns "" when ref names live code, or what is missing.
func (idx *declIndex) resolve(ref docRef) string {
	parts := ref.parts
	last := len(parts) - 1
	has := func(set map[string]bool, name string, i int) bool {
		if set[name] {
			return true
		}
		if ref.prefix && i == last {
			for decl := range set {
				if strings.HasPrefix(decl, name) {
					return true
				}
			}
		}
		return false
	}
	rest := parts
	if len(parts) > 1 && !mixedCase(parts[0]) && !skipped(parts[1]) {
		// pkg.Name: the name must be declared at the top level of a
		// repository package or a standard-library package of that name.
		pkg, name := parts[0], parts[1]
		switch {
		case idx.pkgs[pkg] != nil:
			if !has(idx.pkgs[pkg], name, 1) {
				return "is not declared in package " + pkg
			}
			rest = parts[2:]
		case idx.imports[pkg] != "":
			if !has(idx.stdDecls(idx.imports[pkg]), name, 1) {
				return "is not declared in package " + idx.imports[pkg]
			}
			return "" // fields and methods of library types are not indexed
		default:
			rest = parts[1:] // a variable's selector: v.Field
		}
	}
	for i, p := range rest {
		if skipped(p) || (len(rest) == len(parts) && i == 0 && !mixedCase(p) && len(parts) > 1) {
			continue
		}
		if !has(idx.all, p, len(parts)-len(rest)+i) {
			return "names " + p + ", which nothing in the repository declares"
		}
	}
	return ""
}
