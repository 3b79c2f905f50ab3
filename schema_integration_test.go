package idl

import (
	"strings"
	"testing"
)

// Schema enforcement end to end: declared constraints guard every update
// request, including those issued through update programs and view
// updates (the §8 extension wired into §5/§7 machinery).

func declareStockSchema(t *testing.T, db *DB) {
	t.Helper()
	err := db.Schema().Declare(RelDecl{
		DB: "euter", Rel: "r",
		Attrs: []AttrDecl{
			{Name: "date", Type: DateType, Required: true},
			{Name: "stkCode", Type: StringType, Required: true},
			{Name: "clsPrice", Type: NumberType},
		},
		Key: []string{"date", "stkCode"},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSchemaAllowsValidInsert(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	declareStockSchema(t, db)
	if _, err := db.Exec("?.euter.r+(.date=3/4/85, .stkCode=hp, .clsPrice=70)"); err != nil {
		t.Fatalf("valid insert rejected: %v", err)
	}
}

func TestSchemaRejectsTypeViolation(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	declareStockSchema(t, db)
	_, err := db.Exec(`?.euter.r+(.date=3/4/85, .stkCode=hp, .clsPrice=cheap)`)
	if err == nil || !strings.Contains(err.Error(), "type violation") {
		t.Fatalf("err = %v", err)
	}
	// And the insert was rolled back.
	res, _ := db.Query("?.euter.r(.date=3/4/85)")
	if res.Bool() {
		t.Error("violating insert should be rolled back")
	}
}

func TestSchemaRejectsMissingRequired(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	declareStockSchema(t, db)
	if _, err := db.Exec("?.euter.r+(.date=3/4/85, .clsPrice=70)"); err == nil {
		t.Fatal("missing required stkCode should be rejected")
	}
}

func TestSchemaKeyEnforcedThroughPrograms(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	declareStockSchema(t, db)
	if err := db.DefineProgram(".dbU.ins(.stk=S, .date=D, .price=P) -> .euter.r+(.stkCode=S, .date=D, .clsPrice=P)"); err != nil {
		t.Fatal(err)
	}
	// First insert via program OK; second violates the (date, stkCode) key.
	if _, err := db.Exec("?.dbU.ins(.stk=newco, .date=3/4/85, .price=1)"); err != nil {
		t.Fatal(err)
	}
	_, err := db.Exec("?.dbU.ins(.stk=newco, .date=3/4/85, .price=2)")
	if err == nil || !strings.Contains(err.Error(), "key violation") {
		t.Fatalf("err = %v", err)
	}
	// Rollback left exactly the first quote.
	res, _ := db.Query("?.euter.r(.stkCode=newco, .clsPrice=P)")
	if res.Len() != 1 || !res.Contains(RowOf("P", 1)) {
		t.Errorf("state after rollback:\n%s", res)
	}
}

func TestSchemaForeignKeyAcrossDatabases(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	db.Catalog().Insert("registry", "listed",
		Tup("code", "hp"), Tup("code", "ibm"), Tup("code", "sun"))
	if err := db.Schema().Declare(RelDecl{
		DB: "euter", Rel: "r",
		ForeignKeys: []ForeignKey{{From: "stkCode", RefDB: "registry", RefRel: "listed", To: "code"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("?.euter.r+(.date=3/4/85, .stkCode=hp, .clsPrice=70)"); err != nil {
		t.Fatalf("listed stock rejected: %v", err)
	}
	_, err := db.Exec("?.euter.r+(.date=3/4/85, .stkCode=unlisted, .clsPrice=70)")
	if err == nil || !strings.Contains(err.Error(), "foreign-key") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateSchemaBulkLoad(t *testing.T) {
	db := Open()
	declareStockSchema(t, db)
	// Bulk loads bypass per-request validation…
	db.Catalog().Insert("euter", "r", Tup("stkCode", "hp")) // missing date
	// …but explicit validation catches them.
	if err := db.ValidateSchema(); err == nil {
		t.Error("ValidateSchema should report the bad bulk row")
	}
	// Without declarations ValidateSchema is a no-op.
	fresh := Open()
	if err := fresh.ValidateSchema(); err != nil {
		t.Errorf("no-schema validate = %v", err)
	}
}

func TestSchemaReifiedQueryable(t *testing.T) {
	db := Open()
	seedStocks(t, db)
	declareStockSchema(t, db)
	// Publish the declarations as data, then query them with IDL.
	reified := db.Schema().Reify()
	db.Engine().Base().Put("constraints", reified)
	db.Engine().Invalidate()
	res, err := db.Query("?.constraints.keys(.db=euter, .rel=r, .attr=A)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("reified keys:\n%s", res)
	}
	res, err = db.Query(`?.constraints.types(.attr=clsPrice, .type=T)`)
	if err != nil || !res.Contains(RowOf("T", "number")) {
		t.Errorf("reified types: %v, %v", res, err)
	}
}
