package sql

import (
	"testing"
	"testing/quick"
)

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{NewInt(1), NewInt(1), true},
		{NewInt(1), NewInt(2), false},
		{NewInt(1), NewFloat(1), true},
		{NewFloat(1.5), NewInt(1), false},
		{NewString("a"), NewString("a"), true},
		{NewString("a"), NewString("b"), false},
		{Null, Null, true},
		{Null, NewInt(0), false},
		{NewBool(true), NewBool(true), true},
		{NewBool(true), NewInt(1), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCompare3VL(t *testing.T) {
	if got := Compare3VL("=", Null, NewInt(1)); got != Unknown3 {
		t.Errorf("NULL = 1 -> %v, want Unknown", got)
	}
	if got := Compare3VL("=", Null, Null); got != Unknown3 {
		t.Errorf("NULL = NULL -> %v, want Unknown", got)
	}
	if got := Compare3VL("<", NewInt(1), NewInt(2)); got != True3 {
		t.Errorf("1 < 2 -> %v", got)
	}
	if got := Compare3VL(">=", NewInt(1), NewInt(2)); got != False3 {
		t.Errorf("1 >= 2 -> %v", got)
	}
	if got := Compare3VL("<>", NewString("a"), NewString("b")); got != True3 {
		t.Errorf("'a' <> 'b' -> %v", got)
	}
}

func TestBool3Tables(t *testing.T) {
	// Kleene logic truth tables.
	vals := []Bool3{False3, True3, Unknown3}
	for _, a := range vals {
		for _, b := range vals {
			and := And3(a, b)
			or := Or3(a, b)
			if a == False3 || b == False3 {
				if and != False3 {
					t.Errorf("And3(%v,%v)=%v", a, b, and)
				}
			} else if a == True3 && b == True3 {
				if and != True3 {
					t.Errorf("And3(%v,%v)=%v", a, b, and)
				}
			} else if and != Unknown3 {
				t.Errorf("And3(%v,%v)=%v", a, b, and)
			}
			if a == True3 || b == True3 {
				if or != True3 {
					t.Errorf("Or3(%v,%v)=%v", a, b, or)
				}
			} else if a == False3 && b == False3 {
				if or != False3 {
					t.Errorf("Or3(%v,%v)=%v", a, b, or)
				}
			} else if or != Unknown3 {
				t.Errorf("Or3(%v,%v)=%v", a, b, or)
			}
		}
	}
	// De Morgan: Not(And(a,b)) == Or(Not a, Not b).
	for _, a := range vals {
		for _, b := range vals {
			if Not3(And3(a, b)) != Or3(Not3(a), Not3(b)) {
				t.Errorf("De Morgan violated for %v, %v", a, b)
			}
		}
	}
}

func TestCompareTotalOrderProperties(t *testing.T) {
	// Compare is antisymmetric and reflexive for int values.
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		if va.Compare(va) != 0 {
			return false
		}
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":  Null,
		"42":    NewInt(42),
		"'hi'":  NewString("hi"),
		"TRUE":  NewBool(true),
		"FALSE": NewBool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestSchemaValidate(t *testing.T) {
	s := NewSchema()
	s.AddTable(&TableDef{
		Name: "users",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "email", Type: TString},
		},
		PrimaryKey: []string{"id"},
		Uniques:    [][]string{{"email"}},
	})
	s.AddTable(&TableDef{
		Name: "posts",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "user_id", Type: TInt, NotNull: true},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []ForeignKey{{Columns: []string{"user_id"}, RefTable: "users", RefColumns: []string{"id"}}},
	})
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}

	users := s.Tables["users"]
	if !users.IsUnique([]string{"id"}) {
		t.Error("primary key not unique")
	}
	if !users.IsUnique([]string{"email"}) {
		t.Error("declared unique not detected")
	}
	if users.IsUnique([]string{"email2"}) {
		t.Error("unknown column unique")
	}
	if !users.IsNotNull([]string{"id"}) {
		t.Error("pk should be not null")
	}
	if users.IsNotNull([]string{"email"}) {
		t.Error("nullable column reported not null")
	}
	posts := s.Tables["posts"]
	if !posts.References([]string{"user_id"}, "users", []string{"id"}) {
		t.Error("FK not detected")
	}
	if posts.References([]string{"id"}, "users", []string{"id"}) {
		t.Error("phantom FK detected")
	}
}

func TestSchemaValidateErrors(t *testing.T) {
	s := NewSchema()
	s.AddTable(&TableDef{
		Name:       "t",
		Columns:    []Column{{Name: "a", Type: TInt}},
		PrimaryKey: []string{"missing"},
	})
	if err := s.Validate(); err == nil {
		t.Error("missing pk column accepted")
	}

	s2 := NewSchema()
	s2.AddTable(&TableDef{
		Name:        "t",
		Columns:     []Column{{Name: "a", Type: TInt}},
		ForeignKeys: []ForeignKey{{Columns: []string{"a"}, RefTable: "nope", RefColumns: []string{"x"}}},
	})
	if err := s2.Validate(); err == nil {
		t.Error("FK to unknown table accepted")
	}

	s3 := NewSchema()
	s3.AddTable(&TableDef{
		Name:    "a",
		Columns: []Column{{Name: "x", Type: TInt}},
	})
	s3.AddTable(&TableDef{
		Name:        "b",
		Columns:     []Column{{Name: "y", Type: TInt}},
		ForeignKeys: []ForeignKey{{Columns: []string{"y"}, RefTable: "a", RefColumns: []string{"x"}}},
	})
	if err := s3.Validate(); err == nil {
		t.Error("FK to non-unique target accepted")
	}
}

func TestSchemaDDL(t *testing.T) {
	s := NewSchema()
	s.AddTable(&TableDef{
		Name:       "t",
		Columns:    []Column{{Name: "id", Type: TInt, NotNull: true}},
		PrimaryKey: []string{"id"},
	})
	ddl := FormatDDL(s)
	for _, want := range []string{"CREATE TABLE t", "id INT NOT NULL", "PRIMARY KEY (id)"} {
		if !contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
}

func contains(haystack, needle string) bool {
	return len(needle) == 0 || len(haystack) >= len(needle) && indexOf(haystack, needle) >= 0
}

func indexOf(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}
