//! In-process execution of generated inspectors.
//!
//! The paper compiles its synthesized SPF code to C; here the loop AST is
//! *compiled* to a register-resolved form ([`Program`]) and interpreted
//! directly, so synthesized conversions are executable and benchmarkable
//! without a C toolchain. Name resolution happens once at compile time:
//! loop variables become register indices and UF/data/list names become
//! dense table indices, leaving only array indexing in the hot loops.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use crate::ast::{CmpOp, Expr, SlotAlloc, Stmt};
use crate::runtime::{ListError, OrderedList, RtEnv};

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A symbolic constant was read before being bound.
    UnboundSym(String),
    /// An index array was accessed before allocation/binding.
    UnboundUf(String),
    /// A data array was accessed before allocation/binding.
    UnboundData(String),
    /// An ordered list was used without being declared in the environment.
    UnboundList(String),
    /// Out-of-bounds index-array access.
    OobUf {
        /// Array name.
        name: String,
        /// Offending index.
        idx: i64,
        /// Array length.
        len: usize,
    },
    /// Out-of-bounds data-array access.
    OobData {
        /// Array name.
        name: String,
        /// Offending index.
        idx: i64,
        /// Array length.
        len: usize,
    },
    /// Division by zero in a generated expression.
    DivByZero,
    /// Negative allocation size.
    BadAlloc {
        /// Array name.
        name: String,
        /// Requested size.
        size: i64,
    },
    /// An ordered-list operation failed.
    List(ListError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnboundSym(s) => write!(f, "symbol `{s}` is unbound"),
            ExecError::UnboundUf(s) => write!(f, "index array `{s}` is unbound"),
            ExecError::UnboundData(s) => write!(f, "data array `{s}` is unbound"),
            ExecError::UnboundList(s) => write!(f, "ordered list `{s}` is undeclared"),
            ExecError::OobUf { name, idx, len } => {
                write!(f, "index array `{name}`[{idx}] out of bounds (len {len})")
            }
            ExecError::OobData { name, idx, len } => {
                write!(f, "data array `{name}`[{idx}] out of bounds (len {len})")
            }
            ExecError::DivByZero => write!(f, "division by zero"),
            ExecError::BadAlloc { name, size } => {
                write!(f, "negative allocation of `{name}` ({size})")
            }
            ExecError::List(e) => write!(f, "ordered list error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ListError> for ExecError {
    fn from(e: ListError) -> Self {
        ExecError::List(e)
    }
}

/// Execution statistics, useful for asserting algorithmic shape in tests
/// (e.g. the DIA linear search executes `O(NNZ · ND)` iterations while the
/// binary-search variant does not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total loop iterations executed.
    pub loop_iterations: u64,
    /// Total statements executed (loops counted once per entry).
    pub statements: u64,
}

#[derive(Debug, Clone)]
enum CExpr {
    Const(i64),
    Reg(u32),
    Sym(u32),
    UfRead { uf: u32, idx: Box<CExpr> },
    ListRank { list: u32, args: Vec<CExpr> },
    ListLen(u32),
    Add(Box<CExpr>, Box<CExpr>),
    Sub(Box<CExpr>, Box<CExpr>),
    Mul(Box<CExpr>, Box<CExpr>),
    Div(Box<CExpr>, Box<CExpr>),
    Min(Box<CExpr>, Box<CExpr>),
    Max(Box<CExpr>, Box<CExpr>),
}

#[derive(Debug, Clone)]
enum CStmt {
    For { slot: u32, lo: CExpr, hi: CExpr, body: Vec<CStmt> },
    Let { slot: u32, value: CExpr },
    If { clauses: Vec<(CExpr, CmpOp, CExpr)>, body: Vec<CStmt> },
    FindBinary { slot: u32, lo: CExpr, hi: CExpr, key: CExpr, target: CExpr, body: Vec<CStmt> },
    UfWrite { uf: u32, idx: CExpr, value: CExpr },
    UfMin { uf: u32, idx: CExpr, value: CExpr },
    UfMax { uf: u32, idx: CExpr, value: CExpr },
    UfAlloc { uf: u32, size: CExpr, init: CExpr },
    DataAlloc { arr: u32, size: CExpr },
    ListInsert { list: u32, args: Vec<CExpr> },
    ListFinalize { list: u32 },
    ListToUf { list: u32, dim: usize, uf: u32 },
    SymSet { sym: u32, value: CExpr },
    DataAxpy { y: u32, y_idx: CExpr, a: u32, a_idx: CExpr, x: u32, x_idx: CExpr },
    Copy { dst: u32, dst_idx: CExpr, src: u32, src_idx: CExpr },
    Nop,
}

#[derive(Debug, Default)]
struct Interner {
    names: Vec<String>,
    map: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), id);
        id
    }
}

/// A compiled inspector: resolved statements plus the name tables needed
/// to bind a [`RtEnv`] at execution time.
#[derive(Debug)]
pub struct Program {
    stmts: Vec<CStmt>,
    n_slots: usize,
    syms: Vec<String>,
    ufs: Vec<String>,
    data: Vec<String>,
    lists: Vec<String>,
}

impl Program {
    /// Names of the symbolic constants the program references.
    pub fn sym_names(&self) -> &[String] {
        &self.syms
    }

    /// Names of the index arrays the program references.
    pub fn uf_names(&self) -> &[String] {
        &self.ufs
    }

    /// Names of the data arrays the program references.
    pub fn data_names(&self) -> &[String] {
        &self.data
    }

    /// Names of the ordered lists the program references.
    pub fn list_names(&self) -> &[String] {
        &self.lists
    }
}

struct Compiler {
    syms: Interner,
    ufs: Interner,
    data: Interner,
    lists: Interner,
}

impl Compiler {
    /// Builds a binary node, folding `Const op Const` at compile time so the
    /// interpreter never revisits arithmetic on literals (`Div` folds only
    /// when the divisor is nonzero — a literal division by zero must still
    /// surface as a runtime [`ExecError::DivByZero`]).
    fn binary(
        a: CExpr,
        b: CExpr,
        fold: fn(i64, i64) -> Option<i64>,
        build: fn(Box<CExpr>, Box<CExpr>) -> CExpr,
    ) -> CExpr {
        if let (CExpr::Const(x), CExpr::Const(y)) = (&a, &b) {
            if let Some(v) = fold(*x, *y) {
                return CExpr::Const(v);
            }
        }
        build(Box::new(a), Box::new(b))
    }

    fn expr(&mut self, e: &Expr) -> CExpr {
        match e {
            Expr::Const(c) => CExpr::Const(*c),
            Expr::Var(_, slot) => CExpr::Reg(slot.0),
            Expr::Sym(s) => CExpr::Sym(self.syms.intern(s)),
            Expr::UfRead { uf, idx } => CExpr::UfRead {
                uf: self.ufs.intern(uf),
                idx: Box::new(self.expr(idx)),
            },
            Expr::ListRank { list, args } => CExpr::ListRank {
                list: self.lists.intern(list),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            Expr::ListLen(l) => CExpr::ListLen(self.lists.intern(l)),
            Expr::Add(a, b) => Self::binary(
                self.expr(a),
                self.expr(b),
                |x, y| Some(x.wrapping_add(y)),
                CExpr::Add,
            ),
            Expr::Sub(a, b) => Self::binary(
                self.expr(a),
                self.expr(b),
                |x, y| Some(x.wrapping_sub(y)),
                CExpr::Sub,
            ),
            Expr::Mul(a, b) => Self::binary(
                self.expr(a),
                self.expr(b),
                |x, y| Some(x.wrapping_mul(y)),
                CExpr::Mul,
            ),
            Expr::Div(a, b) => Self::binary(
                self.expr(a),
                self.expr(b),
                |x, y| (y != 0).then(|| x.div_euclid(y)),
                CExpr::Div,
            ),
            Expr::Min(a, b) => Self::binary(
                self.expr(a),
                self.expr(b),
                |x, y| Some(x.min(y)),
                CExpr::Min,
            ),
            Expr::Max(a, b) => Self::binary(
                self.expr(a),
                self.expr(b),
                |x, y| Some(x.max(y)),
                CExpr::Max,
            ),
        }
    }

    fn stmt(&mut self, s: &Stmt) -> CStmt {
        match s {
            Stmt::For { slot, lo, hi, body, .. } => CStmt::For {
                slot: slot.0,
                lo: self.expr(lo),
                hi: self.expr(hi),
                body: body.iter().map(|x| self.stmt(x)).collect(),
            },
            Stmt::Let { slot, value, .. } => {
                CStmt::Let { slot: slot.0, value: self.expr(value) }
            }
            Stmt::If { cond, body } => CStmt::If {
                clauses: cond
                    .clauses
                    .iter()
                    .map(|(a, op, b)| (self.expr(a), *op, self.expr(b)))
                    .collect(),
                body: body.iter().map(|x| self.stmt(x)).collect(),
            },
            Stmt::FindBinary { slot, lo, hi, key, target, body, .. } => CStmt::FindBinary {
                slot: slot.0,
                lo: self.expr(lo),
                hi: self.expr(hi),
                key: self.expr(key),
                target: self.expr(target),
                body: body.iter().map(|x| self.stmt(x)).collect(),
            },
            Stmt::UfWrite { uf, idx, value } => CStmt::UfWrite {
                uf: self.ufs.intern(uf),
                idx: self.expr(idx),
                value: self.expr(value),
            },
            Stmt::UfMin { uf, idx, value } => CStmt::UfMin {
                uf: self.ufs.intern(uf),
                idx: self.expr(idx),
                value: self.expr(value),
            },
            Stmt::UfMax { uf, idx, value } => CStmt::UfMax {
                uf: self.ufs.intern(uf),
                idx: self.expr(idx),
                value: self.expr(value),
            },
            Stmt::UfAlloc { uf, size, init } => CStmt::UfAlloc {
                uf: self.ufs.intern(uf),
                size: self.expr(size),
                init: self.expr(init),
            },
            Stmt::DataAlloc { arr, size } => CStmt::DataAlloc {
                arr: self.data.intern(arr),
                size: self.expr(size),
            },
            Stmt::ListInsert { list, args } => CStmt::ListInsert {
                list: self.lists.intern(list),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            Stmt::ListFinalize { list } => {
                CStmt::ListFinalize { list: self.lists.intern(list) }
            }
            Stmt::ListToUf { list, dim, uf } => CStmt::ListToUf {
                list: self.lists.intern(list),
                dim: *dim,
                uf: self.ufs.intern(uf),
            },
            Stmt::SymSet { sym, value } => CStmt::SymSet {
                sym: self.syms.intern(sym),
                value: self.expr(value),
            },
            Stmt::DataAxpy { y, y_idx, a, a_idx, x, x_idx } => CStmt::DataAxpy {
                y: self.data.intern(y),
                y_idx: self.expr(y_idx),
                a: self.data.intern(a),
                a_idx: self.expr(a_idx),
                x: self.data.intern(x),
                x_idx: self.expr(x_idx),
            },
            Stmt::Copy { dst, dst_idx, src, src_idx } => CStmt::Copy {
                dst: self.data.intern(dst),
                dst_idx: self.expr(dst_idx),
                src: self.data.intern(src),
                src_idx: self.expr(src_idx),
            },
            Stmt::Comment(_) => CStmt::Nop,
        }
    }
}

/// Compiles a statement list into an executable [`Program`].
pub fn compile(stmts: &[Stmt], slots: &SlotAlloc) -> Program {
    let mut c = Compiler {
        syms: Interner::default(),
        ufs: Interner::default(),
        data: Interner::default(),
        lists: Interner::default(),
    };
    let compiled = stmts.iter().map(|s| c.stmt(s)).collect();
    Program {
        stmts: compiled,
        n_slots: slots.len(),
        syms: c.syms.names,
        ufs: c.ufs.names,
        data: c.data.names,
        lists: c.lists.names,
    }
}

/// The interpreter state. `STATS` selects at monomorphization time whether
/// per-statement/per-iteration counters are maintained; the quiet variant
/// ([`execute_quiet`]) carries no counting overhead in its hot loops.
struct Machine<'p, 'a, const STATS: bool> {
    prog: &'p Program,
    regs: Vec<i64>,
    syms: Vec<Option<i64>>,
    ufs: Vec<Option<Cow<'a, [i64]>>>,
    data: Vec<Option<Cow<'a, [f64]>>>,
    lists: Vec<Option<OrderedList>>,
    stats: ExecStats,
    key_buf: Vec<i64>,
}

impl<'p, 'a, const STATS: bool> Machine<'p, 'a, STATS> {
    #[inline]
    fn eval(&mut self, e: &CExpr) -> Result<i64, ExecError> {
        Ok(match e {
            CExpr::Const(c) => *c,
            CExpr::Reg(r) => self.regs[*r as usize],
            CExpr::Sym(s) => self.syms[*s as usize]
                .ok_or_else(|| ExecError::UnboundSym(self.prog.syms[*s as usize].clone()))?,
            CExpr::UfRead { uf, idx } => {
                let i = self.eval(idx)?;
                let table = self.ufs[*uf as usize].as_ref().ok_or_else(|| {
                    ExecError::UnboundUf(self.prog.ufs[*uf as usize].clone())
                })?;
                if i < 0 || i as usize >= table.len() {
                    return Err(ExecError::OobUf {
                        name: self.prog.ufs[*uf as usize].clone(),
                        idx: i,
                        len: table.len(),
                    });
                }
                table[i as usize]
            }
            CExpr::ListRank { list, args } => self.list_rank(*list, args)?,
            CExpr::ListLen(list) => {
                let l = self.lists[*list as usize].as_ref().ok_or_else(|| {
                    ExecError::UnboundList(self.prog.lists[*list as usize].clone())
                })?;
                l.len() as i64
            }
            CExpr::Add(a, b) => self.eval(a)?.wrapping_add(self.eval(b)?),
            CExpr::Sub(a, b) => self.eval(a)?.wrapping_sub(self.eval(b)?),
            CExpr::Mul(a, b) => self.eval(a)?.wrapping_mul(self.eval(b)?),
            CExpr::Div(a, b) => {
                let d = self.eval(b)?;
                if d == 0 {
                    return Err(ExecError::DivByZero);
                }
                self.eval(a)?.div_euclid(d)
            }
            CExpr::Min(a, b) => self.eval(a)?.min(self.eval(b)?),
            CExpr::Max(a, b) => self.eval(a)?.max(self.eval(b)?),
        })
    }

    /// `list.rank(args...)`, kept out of line so that [`Machine::eval`]
    /// stays small for plans without a permutation.
    #[inline(never)]
    fn list_rank(&mut self, list: u32, args: &[CExpr]) -> Result<i64, ExecError> {
        let mut key = std::mem::take(&mut self.key_buf);
        key.clear();
        for a in args {
            key.push(self.eval(a)?);
        }
        let l = self.lists[list as usize]
            .as_mut()
            .ok_or_else(|| ExecError::UnboundList(self.prog.lists[list as usize].clone()))?;
        let r = l.rank_next(&key);
        self.key_buf = key;
        Ok(r?)
    }

    fn run_block(&mut self, block: &'p [CStmt]) -> Result<(), ExecError> {
        for s in block {
            self.run_stmt(s)?;
        }
        Ok(())
    }

    fn uf_slot_mut<'m>(
        ufs: &'m mut [Option<Cow<'a, [i64]>>],
        names: &[String],
        uf: u32,
        idx: i64,
    ) -> Result<&'m mut i64, ExecError> {
        let table = ufs[uf as usize]
            .as_mut()
            .ok_or_else(|| ExecError::UnboundUf(names[uf as usize].clone()))?;
        let len = table.len();
        if idx < 0 || idx as usize >= len {
            return Err(ExecError::OobUf { name: names[uf as usize].clone(), idx, len });
        }
        // Clone-on-first-write: arrays bound as `Cow::Borrowed` are copied
        // here exactly once; already-owned arrays mutate in place.
        Ok(&mut table.to_mut()[idx as usize])
    }

    fn run_stmt(&mut self, s: &'p CStmt) -> Result<(), ExecError> {
        if STATS {
            self.stats.statements += 1;
        }
        match s {
            CStmt::For { slot, lo, hi, body } => {
                let lo = self.eval(lo)?;
                let hi = self.eval(hi)?;
                let mut v = lo;
                while v < hi {
                    self.regs[*slot as usize] = v;
                    if STATS {
                        self.stats.loop_iterations += 1;
                    }
                    self.run_block(body)?;
                    v += 1;
                }
            }
            CStmt::Let { slot, value } => {
                self.regs[*slot as usize] = self.eval(value)?;
            }
            CStmt::If { clauses, body } => {
                let mut ok = true;
                for (a, op, b) in clauses {
                    let av = self.eval(a)?;
                    let bv = self.eval(b)?;
                    if !op.eval(av, bv) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.run_block(body)?;
                }
            }
            CStmt::FindBinary { slot, lo, hi, key, target, body } => {
                let mut lo_v = self.eval(lo)?;
                let mut hi_v = self.eval(hi)?;
                // The bounds are loop-invariant per entry (the bisection
                // never writes state `lo`/`hi` could read), so the original
                // upper bound is hoisted instead of re-evaluated after the
                // search.
                let hi_orig = hi_v;
                let target_v = self.eval(target)?;
                // Leftmost position where key(pos) >= target, by bisection;
                // the key is monotone non-decreasing by construction.
                while lo_v < hi_v {
                    let mid = lo_v + (hi_v - lo_v) / 2;
                    self.regs[*slot as usize] = mid;
                    if STATS {
                        self.stats.loop_iterations += 1;
                    }
                    let kv = self.eval(key)?;
                    if kv < target_v {
                        lo_v = mid + 1;
                    } else {
                        hi_v = mid;
                    }
                }
                if lo_v < hi_orig {
                    self.regs[*slot as usize] = lo_v;
                    let kv = self.eval(key)?;
                    if kv == target_v {
                        self.run_block(body)?;
                    }
                }
            }
            CStmt::UfWrite { uf, idx, value } => {
                let i = self.eval(idx)?;
                let v = self.eval(value)?;
                *Self::uf_slot_mut(&mut self.ufs, &self.prog.ufs, *uf, i)? = v;
            }
            CStmt::UfMin { uf, idx, value } => {
                let i = self.eval(idx)?;
                let v = self.eval(value)?;
                let slot = Self::uf_slot_mut(&mut self.ufs, &self.prog.ufs, *uf, i)?;
                if v < *slot {
                    *slot = v;
                }
            }
            CStmt::UfMax { uf, idx, value } => {
                let i = self.eval(idx)?;
                let v = self.eval(value)?;
                let slot = Self::uf_slot_mut(&mut self.ufs, &self.prog.ufs, *uf, i)?;
                if v > *slot {
                    *slot = v;
                }
            }
            CStmt::UfAlloc { uf, size, init } => {
                let n = self.eval(size)?;
                if n < 0 {
                    return Err(ExecError::BadAlloc {
                        name: self.prog.ufs[*uf as usize].clone(),
                        size: n,
                    });
                }
                let init = self.eval(init)?;
                self.ufs[*uf as usize] = Some(Cow::Owned(vec![init; n as usize]));
            }
            CStmt::DataAlloc { arr, size } => {
                let n = self.eval(size)?;
                if n < 0 {
                    return Err(ExecError::BadAlloc {
                        name: self.prog.data[*arr as usize].clone(),
                        size: n,
                    });
                }
                self.data[*arr as usize] = Some(Cow::Owned(vec![0.0; n as usize]));
            }
            CStmt::ListInsert { list, args } => {
                let mut key = std::mem::take(&mut self.key_buf);
                key.clear();
                for a in args {
                    key.push(self.eval(a)?);
                }
                let l = self.lists[*list as usize].as_mut().ok_or_else(|| {
                    ExecError::UnboundList(self.prog.lists[*list as usize].clone())
                })?;
                let r = l.insert(&key);
                self.key_buf = key;
                r?;
            }
            CStmt::ListFinalize { list } => {
                let l = self.lists[*list as usize].as_mut().ok_or_else(|| {
                    ExecError::UnboundList(self.prog.lists[*list as usize].clone())
                })?;
                l.finalize();
            }
            CStmt::ListToUf { list, dim, uf } => {
                let l = self.lists[*list as usize].as_ref().ok_or_else(|| {
                    ExecError::UnboundList(self.prog.lists[*list as usize].clone())
                })?;
                let n = l.len();
                let mut out = Vec::with_capacity(n);
                for p in 0..n {
                    out.push(l.key_col(p, *dim)?);
                }
                self.ufs[*uf as usize] = Some(Cow::Owned(out));
            }
            CStmt::SymSet { sym, value } => {
                let v = self.eval(value)?;
                self.syms[*sym as usize] = Some(v);
            }
            CStmt::DataAxpy { y, y_idx, a, a_idx, x, x_idx } => {
                let yi = self.eval(y_idx)?;
                let ai = self.eval(a_idx)?;
                let xi = self.eval(x_idx)?;
                let read = |data: &[Option<Cow<'a, [f64]>>],
                            names: &[String],
                            arr: u32,
                            idx: i64|
                 -> Result<f64, ExecError> {
                    let v = data[arr as usize].as_ref().ok_or_else(|| {
                        ExecError::UnboundData(names[arr as usize].clone())
                    })?;
                    if idx < 0 || idx as usize >= v.len() {
                        return Err(ExecError::OobData {
                            name: names[arr as usize].clone(),
                            idx,
                            len: v.len(),
                        });
                    }
                    Ok(v[idx as usize])
                };
                let av = read(&self.data, &self.prog.data, *a, ai)?;
                let xv = read(&self.data, &self.prog.data, *x, xi)?;
                let y_arr = self.data[*y as usize].as_mut().ok_or_else(|| {
                    ExecError::UnboundData(self.prog.data[*y as usize].clone())
                })?;
                if yi < 0 || yi as usize >= y_arr.len() {
                    return Err(ExecError::OobData {
                        name: self.prog.data[*y as usize].clone(),
                        idx: yi,
                        len: y_arr.len(),
                    });
                }
                y_arr.to_mut()[yi as usize] += av * xv;
            }
            CStmt::Copy { dst, dst_idx, src, src_idx } => {
                let di = self.eval(dst_idx)?;
                let si = self.eval(src_idx)?;
                let sv = {
                    let s_arr = self.data[*src as usize].as_ref().ok_or_else(|| {
                        ExecError::UnboundData(self.prog.data[*src as usize].clone())
                    })?;
                    if si < 0 || si as usize >= s_arr.len() {
                        return Err(ExecError::OobData {
                            name: self.prog.data[*src as usize].clone(),
                            idx: si,
                            len: s_arr.len(),
                        });
                    }
                    s_arr[si as usize]
                };
                let d_arr = self.data[*dst as usize].as_mut().ok_or_else(|| {
                    ExecError::UnboundData(self.prog.data[*dst as usize].clone())
                })?;
                if di < 0 || di as usize >= d_arr.len() {
                    return Err(ExecError::OobData {
                        name: self.prog.data[*dst as usize].clone(),
                        idx: di,
                        len: d_arr.len(),
                    });
                }
                d_arr.to_mut()[di as usize] = sv;
            }
            CStmt::Nop => {}
        }
        Ok(())
    }
}

fn run_machine<'a, const STATS: bool>(
    prog: &Program,
    env: &mut RtEnv<'a>,
) -> Result<ExecStats, ExecError> {
    let mut m = Machine::<'_, 'a, STATS> {
        prog,
        regs: vec![0; prog.n_slots],
        syms: prog.syms.iter().map(|n| env.syms.get(n).copied()).collect(),
        ufs: prog.ufs.iter().map(|n| env.ufs.remove(n)).collect(),
        data: prog.data.iter().map(|n| env.data.remove(n)).collect(),
        lists: prog.lists.iter().map(|n| env.lists.remove(n)).collect(),
        stats: ExecStats::default(),
        key_buf: Vec::with_capacity(4),
    };
    let result = m.run_block(&prog.stmts);
    // Move state back regardless of success so callers can inspect it.
    for (name, val) in prog.syms.iter().zip(m.syms) {
        if let Some(v) = val {
            env.syms.insert(name.clone(), v);
        }
    }
    for (name, val) in prog.ufs.iter().zip(m.ufs) {
        if let Some(v) = val {
            env.ufs.insert(name.clone(), v);
        }
    }
    for (name, val) in prog.data.iter().zip(m.data) {
        if let Some(v) = val {
            env.data.insert(name.clone(), v);
        }
    }
    for (name, val) in prog.lists.iter().zip(m.lists) {
        if let Some(v) = val {
            env.lists.insert(name.clone(), v);
        }
    }
    result.map(|()| m.stats)
}

/// Executes a compiled program against an environment, counting statements
/// and loop iterations ([`ExecStats`]).
///
/// On success the environment reflects all writes: new index arrays,
/// data arrays, updated symbols, and finalized lists. On error the
/// environment still contains everything moved back (partial state), so
/// callers can inspect it.
///
/// # Errors
/// Returns an [`ExecError`] on unbound names, out-of-bounds accesses, bad
/// allocations, or ordered-list misuse.
pub fn execute(prog: &Program, env: &mut RtEnv<'_>) -> Result<ExecStats, ExecError> {
    run_machine::<true>(prog, env)
}

/// Executes a compiled program without maintaining [`ExecStats`] counters.
///
/// Identical semantics to [`execute`] — same writes, same errors, same
/// partial state on failure — but the per-statement and per-iteration
/// counter bumps are compiled out entirely, which is the right trade for
/// release benchmarks and the engine's hot path where the counts are
/// never read.
///
/// # Errors
/// Returns an [`ExecError`] on unbound names, out-of-bounds accesses, bad
/// allocations, or ordered-list misuse.
pub fn execute_quiet(prog: &Program, env: &mut RtEnv<'_>) -> Result<(), ExecError> {
    run_machine::<false>(prog, env).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Cond, Slot};
    use crate::runtime::ListOrder;

    fn var(name: &str, s: Slot) -> Expr {
        Expr::Var(name.into(), s)
    }

    /// Histogram: for n in 0..NNZ { count[row[n]] += ... } via UfMax of
    /// positions — here a simple UfWrite exercise building `last[r] = n`.
    #[test]
    fn simple_loop_writes() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = vec![
            Stmt::UfAlloc { uf: "last".into(), size: Expr::Sym("NR".into()), init: Expr::Const(-1) },
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(0),
                hi: Expr::Sym("NNZ".into()),
                body: vec![Stmt::UfWrite {
                    uf: "last".into(),
                    idx: Expr::uf_read("row", var("n", n)),
                    value: var("n", n),
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new()
            .with_sym("NNZ", 5)
            .with_sym("NR", 3)
            .with_uf("row", vec![0, 1, 1, 2, 0]);
        let stats = execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["last"], vec![4, 2, 3]);
        assert_eq!(stats.loop_iterations, 5);
    }

    #[test]
    fn min_max_updates() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = vec![
            Stmt::UfAlloc { uf: "lo".into(), size: Expr::Const(1), init: Expr::Sym("BIG".into()) },
            Stmt::UfAlloc { uf: "hi".into(), size: Expr::Const(1), init: Expr::Const(0) },
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(0),
                hi: Expr::Const(4),
                body: vec![
                    Stmt::UfMin {
                        uf: "lo".into(),
                        idx: Expr::Const(0),
                        value: Expr::uf_read("x", var("n", n)),
                    },
                    Stmt::UfMax {
                        uf: "hi".into(),
                        idx: Expr::Const(0),
                        value: Expr::uf_read("x", var("n", n)),
                    },
                ],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new()
            .with_sym("BIG", i64::MAX)
            .with_uf("x", vec![7, 3, 9, 5]);
        execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["lo"], vec![3]);
        assert_eq!(env.ufs["hi"], vec![9]);
    }

    #[test]
    fn guard_filters_iterations() {
        let mut slots = SlotAlloc::new();
        let i = slots.alloc("i");
        let stmts = vec![
            Stmt::UfAlloc { uf: "out".into(), size: Expr::Const(1), init: Expr::Const(0) },
            Stmt::For {
                var: "i".into(),
                slot: i,
                lo: Expr::Const(0),
                hi: Expr::Const(10),
                body: vec![Stmt::If {
                    cond: Cond::cmp(var("i", i), CmpOp::Ge, Expr::Const(7)),
                    body: vec![Stmt::UfMax {
                        uf: "out".into(),
                        idx: Expr::Const(0),
                        value: var("i", i),
                    }],
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new();
        execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["out"], vec![9]);
    }

    #[test]
    fn list_insert_finalize_rank_roundtrip() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = vec![
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(0),
                hi: Expr::Const(4),
                body: vec![Stmt::ListInsert {
                    list: "P".into(),
                    args: vec![
                        Expr::uf_read("row", var("n", n)),
                        Expr::uf_read("col", var("n", n)),
                    ],
                }],
            },
            Stmt::ListFinalize { list: "P".into() },
            Stmt::UfAlloc { uf: "perm".into(), size: Expr::Const(4), init: Expr::Const(-1) },
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(0),
                hi: Expr::Const(4),
                body: vec![Stmt::UfWrite {
                    uf: "perm".into(),
                    idx: var("n", n),
                    value: Expr::ListRank {
                        list: "P".into(),
                        args: vec![
                            Expr::uf_read("row", var("n", n)),
                            Expr::uf_read("col", var("n", n)),
                        ],
                    },
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        // Column-major-ish input; lexicographic list sorts to row-major.
        let mut env = RtEnv::new()
            .with_uf("row", vec![1, 0, 1, 0])
            .with_uf("col", vec![0, 1, 1, 0])
            .with_list("P", OrderedList::new(2, ListOrder::Lexicographic, false));
        execute(&prog, &mut env).unwrap();
        // (1,0)->2 (0,1)->1 (1,1)->3 (0,0)->0
        assert_eq!(env.ufs["perm"], vec![2, 1, 3, 0]);
    }

    #[test]
    fn find_binary_locates_offsets() {
        let mut slots = SlotAlloc::new();
        let d = slots.alloc("d");
        // off = [-2, 0, 3]; find d with off[d] == 3, write it out.
        let stmts = vec![
            Stmt::UfAlloc { uf: "out".into(), size: Expr::Const(1), init: Expr::Const(-1) },
            Stmt::FindBinary {
                var: "d".into(),
                slot: d,
                lo: Expr::Const(0),
                hi: Expr::Const(3),
                key: Box::new(Expr::uf_read("off", var("d", d))),
                target: Box::new(Expr::Const(3)),
                body: vec![Stmt::UfWrite {
                    uf: "out".into(),
                    idx: Expr::Const(0),
                    value: var("d", d),
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new().with_uf("off", vec![-2, 0, 3]);
        execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["out"], vec![2]);

        // Missing target leaves out untouched.
        let stmts_missing = vec![
            Stmt::UfAlloc { uf: "out".into(), size: Expr::Const(1), init: Expr::Const(-1) },
            Stmt::FindBinary {
                var: "d".into(),
                slot: d,
                lo: Expr::Const(0),
                hi: Expr::Const(3),
                key: Box::new(Expr::uf_read("off", var("d", d))),
                target: Box::new(Expr::Const(2)),
                body: vec![Stmt::UfWrite {
                    uf: "out".into(),
                    idx: Expr::Const(0),
                    value: var("d", d),
                }],
            },
        ];
        let prog2 = compile(&stmts_missing, &slots);
        let mut env2 = RtEnv::new().with_uf("off", vec![-2, 0, 3]);
        execute(&prog2, &mut env2).unwrap();
        assert_eq!(env2.ufs["out"], vec![-1]);
    }

    #[test]
    fn copy_moves_data() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = vec![
            Stmt::DataAlloc { arr: "B".into(), size: Expr::Const(3) },
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(0),
                hi: Expr::Const(3),
                body: vec![Stmt::Copy {
                    dst: "B".into(),
                    dst_idx: Expr::sub(Expr::Const(2), var("n", n)),
                    src: "A".into(),
                    src_idx: var("n", n),
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new().with_data("A", vec![1.0, 2.0, 3.0]);
        execute(&prog, &mut env).unwrap();
        assert_eq!(env.data["B"], vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn sym_set_and_list_len() {
        let stmts = vec![
            Stmt::ListInsert { list: "L".into(), args: vec![Expr::Const(5)] },
            Stmt::ListInsert { list: "L".into(), args: vec![Expr::Const(5)] },
            Stmt::ListInsert { list: "L".into(), args: vec![Expr::Const(7)] },
            Stmt::ListFinalize { list: "L".into() },
            Stmt::SymSet { sym: "ND".into(), value: Expr::ListLen("L".into()) },
            Stmt::ListToUf { list: "L".into(), dim: 0, uf: "off".into() },
        ];
        let slots = SlotAlloc::new();
        let prog = compile(&stmts, &slots);
        let mut env =
            RtEnv::new().with_list("L", OrderedList::new(1, ListOrder::Lexicographic, true));
        execute(&prog, &mut env).unwrap();
        assert_eq!(env.syms["ND"], 2);
        assert_eq!(env.ufs["off"], vec![5, 7]);
    }

    #[test]
    fn errors_surface_with_names() {
        let stmts = vec![Stmt::UfWrite {
            uf: "ghost".into(),
            idx: Expr::Const(0),
            value: Expr::Const(1),
        }];
        let slots = SlotAlloc::new();
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new();
        let err = execute(&prog, &mut env).unwrap_err();
        assert_eq!(err, ExecError::UnboundUf("ghost".into()));

        let stmts = vec![Stmt::UfWrite {
            uf: "a".into(),
            idx: Expr::Const(5),
            value: Expr::Const(1),
        }];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new().with_uf("a", vec![0, 0]);
        let err = execute(&prog, &mut env).unwrap_err();
        assert!(matches!(err, ExecError::OobUf { idx: 5, len: 2, .. }));
    }

    #[test]
    fn empty_loop_runs_zero_iterations() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = vec![
            Stmt::UfAlloc { uf: "out".into(), size: Expr::Const(1), init: Expr::Const(7) },
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(5),
                hi: Expr::Const(5),
                body: vec![Stmt::UfWrite {
                    uf: "out".into(),
                    idx: Expr::Const(0),
                    value: Expr::Const(0),
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new();
        let stats = execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["out"], vec![7]);
        assert_eq!(stats.loop_iterations, 0);
    }

    #[test]
    fn find_binary_boundary_elements() {
        let mut slots = SlotAlloc::new();
        let d = slots.alloc("d");
        for (target, expect) in [(-9i64, 0i64), (42, 4), (7, -1)] {
            let stmts = vec![
                Stmt::UfAlloc { uf: "hit".into(), size: Expr::Const(1), init: Expr::Const(-1) },
                Stmt::FindBinary {
                    var: "d".into(),
                    slot: d,
                    lo: Expr::Const(0),
                    hi: Expr::Const(5),
                    key: Box::new(Expr::uf_read("off", Expr::Var("d".into(), d))),
                    target: Box::new(Expr::Const(target)),
                    body: vec![Stmt::UfWrite {
                        uf: "hit".into(),
                        idx: Expr::Const(0),
                        value: Expr::Var("d".into(), d),
                    }],
                },
            ];
            let prog = compile(&stmts, &slots);
            let mut env = RtEnv::new().with_uf("off", vec![-9, -1, 3, 10, 42]);
            execute(&prog, &mut env).unwrap();
            assert_eq!(env.ufs["hit"], vec![expect], "target {target}");
        }
    }

    #[test]
    fn negative_index_read_is_oob() {
        let stmts = vec![Stmt::UfWrite {
            uf: "out".into(),
            idx: Expr::Const(0),
            value: Expr::uf_read("a", Expr::Const(-1)),
        }];
        let slots = SlotAlloc::new();
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new().with_uf("a", vec![1]).with_uf("out", vec![0]);
        assert!(matches!(
            execute(&prog, &mut env),
            Err(ExecError::OobUf { idx: -1, .. })
        ));
    }

    #[test]
    fn env_restored_after_error() {
        let stmts = vec![
            Stmt::UfWrite { uf: "a".into(), idx: Expr::Const(0), value: Expr::Const(9) },
            Stmt::UfWrite { uf: "a".into(), idx: Expr::Const(99), value: Expr::Const(1) },
        ];
        let slots = SlotAlloc::new();
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new().with_uf("a", vec![0]);
        assert!(execute(&prog, &mut env).is_err());
        // Partial state visible: first write landed.
        assert_eq!(env.ufs["a"], vec![9]);
    }
}
