package analysis

import "go/ast"

// condKind names the construct a branch-deciding expression belongs
// to, so an analyzer can tell a bound check from a loop trip count.
type condKind int

const (
	condIf       condKind = iota // if condition
	condFor                      // for-loop condition
	condTag                      // switch tag
	condCase                     // case expression compared against a tag
	condCaseBool                 // case expression of a tagless switch
)

// flow is the one ordered walk over Go's statement kinds shared by
// the two flow-sensitive analyzers, taint (behind allocguard and
// panicfact) and integrityflow. It owns the structure — Init before
// Cond, clause iteration, block and label unwrapping, body before
// Post — and knows nothing about what either analyzer tracks: every
// field below is a callback for one place they differ. Only expr is
// required. Each other callback, when set, replaces the default
// written next to it. Sends, go and defer statements go through expr,
// select communications are walked as statements, and every branch
// alternative is walked once, in source order.
type flow struct {
	// expr evaluates one expression in statement position.
	expr func(ast.Expr)
	// cond evaluates an expression that decides a branch or a loop.
	// Default: expr.
	cond func(condKind, ast.Expr)
	// assign handles an assignment. Default: expr over Rhs, then Lhs.
	assign func(*ast.AssignStmt)
	// decl handles one var/const spec of a declaration statement.
	// Default: expr over its values.
	decl func(*ast.ValueSpec)
	// ret handles a return. Default: expr over the results.
	ret func(*ast.ReturnStmt)
	// rng handles the head of a range statement (operand, key, value).
	// Default: expr over the operand.
	rng func(*ast.RangeStmt)
	// loop receives a for or range statement whose head has been
	// evaluated, and body, which walks the loop body and then Post. It
	// decides how often and under what state body runs. Default: once.
	loop func(s ast.Stmt, body func())
}

func (f *flow) stmts(list []ast.Stmt) {
	for _, s := range list {
		f.stmt(s)
	}
}

func (f *flow) exprs(list []ast.Expr) {
	for _, x := range list {
		f.expr(x)
	}
}

func (f *flow) condExpr(kind condKind, x ast.Expr) {
	if f.cond != nil {
		f.cond(kind, x)
	} else {
		f.expr(x)
	}
}

func (f *flow) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		f.stmts(s.List)
	case *ast.LabeledStmt:
		f.stmt(s.Stmt)
	case *ast.ExprStmt:
		f.expr(s.X)
	case *ast.IncDecStmt:
		f.expr(s.X)
	case *ast.AssignStmt:
		if f.assign != nil {
			f.assign(s)
		} else {
			f.exprs(s.Rhs)
			f.exprs(s.Lhs)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if f.decl != nil {
				f.decl(vs)
			} else {
				f.exprs(vs.Values)
			}
		}
	case *ast.ReturnStmt:
		if f.ret != nil {
			f.ret(s)
		} else {
			f.exprs(s.Results)
		}
	case *ast.SendStmt:
		f.expr(s.Chan)
		f.expr(s.Value)
	case *ast.GoStmt:
		f.expr(s.Call)
	case *ast.DeferStmt:
		f.expr(s.Call)
	case *ast.IfStmt:
		if s.Init != nil {
			f.stmt(s.Init)
		}
		f.condExpr(condIf, s.Cond)
		f.stmts(s.Body.List)
		if s.Else != nil {
			f.stmt(s.Else)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			f.stmt(s.Init)
		}
		caseKind := condCaseBool
		if s.Tag != nil {
			f.condExpr(condTag, s.Tag)
			caseKind = condCase
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, x := range cc.List {
				f.condExpr(caseKind, x)
			}
			f.stmts(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			f.stmt(s.Init)
		}
		f.stmt(s.Assign)
		for _, c := range s.Body.List {
			f.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				f.stmt(cc.Comm)
			}
			f.stmts(cc.Body)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			f.stmt(s.Init)
		}
		if s.Cond != nil {
			f.condExpr(condFor, s.Cond)
		}
		f.iterate(s, func() {
			f.stmts(s.Body.List)
			if s.Post != nil {
				f.stmt(s.Post)
			}
		})
	case *ast.RangeStmt:
		if f.rng != nil {
			f.rng(s)
		} else {
			f.expr(s.X)
		}
		f.iterate(s, func() { f.stmts(s.Body.List) })
	}
}

func (f *flow) iterate(s ast.Stmt, body func()) {
	if f.loop != nil {
		f.loop(s, body)
	} else {
		body()
	}
}
