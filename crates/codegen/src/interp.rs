//! In-process execution of generated inspectors.
//!
//! The paper compiles its synthesized SPF code to C; here the loop AST is
//! compiled to flat register code ([`Program`]) and run directly, so
//! synthesized conversions are executable and benchmarkable without a C
//! toolchain. Compilation resolves every name once: loop and `Let`
//! variables keep their slot, each subexpression gets a temporary
//! register above the slots, each literal a constant register, and
//! UF/data/list/symbol names become dense table indices. Each expression
//! op writes one register; loops, guards and searches hold their bodies
//! as op slices, and one `match` loop runs a slice.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
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
    /// An allocation whose byte size, or the run's total with it,
    /// overflows.
    AllocOverflow {
        /// Array name.
        name: String,
    },
    /// The allocator refused an allocation.
    AllocFailed {
        /// Array name.
        name: String,
        /// Requested bytes.
        bytes: u64,
    },
    /// An allocation would take the run past its memory budget
    /// ([`RtEnv::budget`]).
    OverBudget {
        /// Array name.
        name: String,
        /// Bytes the run has allocated, plus this allocation
        /// (`u64::MAX` when that sum overflows).
        needed: u64,
        /// The budget in bytes.
        budget: u64,
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
            ExecError::AllocOverflow { name } => {
                write!(f, "allocation of `{name}` overflows its byte size")
            }
            ExecError::AllocFailed { name, bytes } => {
                write!(f, "allocation of `{name}` ({bytes} bytes) failed")
            }
            ExecError::OverBudget { name, needed, budget } => {
                write!(f, "allocating `{name}` needs {needed} bytes, budget is {budget}")
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

/// A register: a slot, a temporary or a constant.
type Reg = u32;

/// One instruction. Expression ops write `dst` from registers that
/// earlier ops wrote; the others write arrays, lists or symbols.
#[derive(Debug)]
enum Op {
    Mov { dst: Reg, src: Reg },
    Sym { dst: Reg, sym: u32 },
    UfRead { dst: Reg, uf: u32, idx: Reg },
    ListRank { dst: Reg, list: u32, args: Box<[Reg]> },
    ListLen { dst: Reg, list: u32 },
    /// Arithmetic, as `(dst, a, b)`.
    Add(Reg, Reg, Reg),
    Sub(Reg, Reg, Reg),
    Mul(Reg, Reg, Reg),
    Div(Reg, Reg, Reg),
    Min(Reg, Reg, Reg),
    Max(Reg, Reg, Reg),
    /// Fails with [`ExecError::DivByZero`] when `r` is zero, so a divisor
    /// is checked before its dividend is evaluated.
    NonZero { r: Reg },
    /// Fails with [`ExecError::BadAlloc`] when `size` is negative, before
    /// the initial value of `uf` is evaluated.
    NonNeg { uf: u32, size: Reg },
    For { slot: Reg, lo: Reg, hi: Reg, body: Block },
    If { a: Reg, op: CmpOp, b: Reg, body: Block },
    Find(Box<Find>),
    UfWrite { uf: u32, idx: Reg, value: Reg },
    UfMin { uf: u32, idx: Reg, value: Reg },
    UfMax { uf: u32, idx: Reg, value: Reg },
    UfAlloc { uf: u32, size: Reg, init: Reg },
    /// The element count is the product of `size`, checked.
    DataAlloc { arr: u32, size: Box<[Reg]> },
    ListInsert { list: u32, args: Box<[Reg]> },
    ListFinalize { list: u32 },
    ListToUf { list: u32, dim: usize, uf: u32 },
    SymSet { sym: u32, value: Reg },
    DataAxpy { y: u32, y_idx: Reg, a: u32, a_idx: Reg, x: u32, x_idx: Reg },
    Copy { dst: u32, dst_idx: Reg, src: u32, src_idx: Reg },
}

/// A `FindBinary`: `key` computes `key_reg` from `slot`, and `body` runs
/// with `slot` at the position in `[lo, hi)` whose key equals `target`.
#[derive(Debug)]
struct Find {
    slot: Reg,
    lo: Reg,
    hi: Reg,
    target: Reg,
    key: Block,
    key_reg: Reg,
    body: Block,
}

/// An op slice and the number of source statements it runs, which
/// [`ExecStats::statements`] counts each time the slice runs.
#[derive(Debug, Default)]
struct Block {
    ops: Box<[Op]>,
    stmts: u64,
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

/// A compiled inspector: flat register code plus the name tables needed
/// to bind a [`RtEnv`] at execution time.
#[derive(Debug)]
pub struct Program {
    main: Block,
    /// The register file a run starts from: zero in slots and
    /// temporaries, the literal in each constant register.
    regs: Vec<i64>,
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

/// The value of `e` when it is built from literals alone, so the
/// interpreter never revisits arithmetic on literals. `Div` folds only
/// for a nonzero divisor: a literal division by zero must still surface
/// as a runtime [`ExecError::DivByZero`].
fn fold(e: &Expr) -> Option<i64> {
    let pair = |a: &Expr, b: &Expr| Some((fold(a)?, fold(b)?));
    match e {
        Expr::Const(c) => Some(*c),
        Expr::Add(a, b) => pair(a, b).map(|(x, y)| x.wrapping_add(y)),
        Expr::Sub(a, b) => pair(a, b).map(|(x, y)| x.wrapping_sub(y)),
        Expr::Mul(a, b) => pair(a, b).map(|(x, y)| x.wrapping_mul(y)),
        Expr::Div(a, b) => pair(a, b).and_then(|(x, y)| (y != 0).then(|| x.div_euclid(y))),
        Expr::Min(a, b) => pair(a, b).map(|(x, y)| x.min(y)),
        Expr::Max(a, b) => pair(a, b).map(|(x, y)| x.max(y)),
        _ => None,
    }
}

#[derive(Default)]
struct Compiler {
    syms: Interner,
    ufs: Interner,
    data: Interner,
    lists: Interner,
    regs: Vec<i64>,
    consts: HashMap<i64, Reg>,
}

impl Compiler {
    fn temp(&mut self) -> Reg {
        self.regs.push(0);
        (self.regs.len() - 1) as Reg
    }

    fn constant(&mut self, c: i64) -> Reg {
        let regs = &mut self.regs;
        *self.consts.entry(c).or_insert_with(|| {
            regs.push(c);
            (regs.len() - 1) as Reg
        })
    }

    /// Lowers `e` into `ops` and returns the register holding its value:
    /// a variable's slot, a literal's constant register, else `into` when
    /// given or a fresh temporary. Operands are lowered left to right,
    /// except that `Div` lowers and checks its divisor first.
    fn expr(&mut self, e: &Expr, ops: &mut Vec<Op>, into: Option<Reg>) -> Reg {
        let dst = match (e, fold(e)) {
            (Expr::Var(_, slot), _) => return slot.0,
            (_, Some(c)) => return self.constant(c),
            _ => into.unwrap_or_else(|| self.temp()),
        };
        let op = match e {
            Expr::Const(_) | Expr::Var(..) => unreachable!("folded or a slot"),
            Expr::Sym(s) => Op::Sym { dst, sym: self.syms.intern(s) },
            Expr::UfRead { uf, idx } => {
                Op::UfRead { dst, uf: self.ufs.intern(uf), idx: self.expr(idx, ops, None) }
            }
            Expr::ListRank { list, args } => {
                Op::ListRank { dst, list: self.lists.intern(list), args: self.args(args, ops) }
            }
            Expr::ListLen(l) => Op::ListLen { dst, list: self.lists.intern(l) },
            Expr::Add(a, b) => self.binary(Op::Add, dst, a, b, ops),
            Expr::Sub(a, b) => self.binary(Op::Sub, dst, a, b, ops),
            Expr::Mul(a, b) => self.binary(Op::Mul, dst, a, b, ops),
            Expr::Min(a, b) => self.binary(Op::Min, dst, a, b, ops),
            Expr::Max(a, b) => self.binary(Op::Max, dst, a, b, ops),
            Expr::Div(a, b) => {
                let divisor = self.expr(b, ops, None);
                if fold(b).is_none_or(|d| d == 0) {
                    ops.push(Op::NonZero { r: divisor });
                }
                Op::Div(dst, self.expr(a, ops, None), divisor)
            }
        };
        ops.push(op);
        dst
    }

    fn binary(
        &mut self,
        make: fn(Reg, Reg, Reg) -> Op,
        dst: Reg,
        a: &Expr,
        b: &Expr,
        ops: &mut Vec<Op>,
    ) -> Op {
        let a = self.expr(a, ops, None);
        make(dst, a, self.expr(b, ops, None))
    }

    fn args(&mut self, args: &[Expr], ops: &mut Vec<Op>) -> Box<[Reg]> {
        args.iter().map(|a| self.expr(a, ops, None)).collect()
    }

    fn block(&mut self, stmts: &[Stmt]) -> Block {
        let mut ops = Vec::new();
        for s in stmts {
            self.stmt(s, &mut ops);
        }
        Block { ops: ops.into(), stmts: stmts.len() as u64 }
    }

    fn stmt(&mut self, s: &Stmt, ops: &mut Vec<Op>) {
        let op = match s {
            Stmt::For { slot, lo, hi, body, .. } => {
                let lo = self.expr(lo, ops, None);
                let hi = self.expr(hi, ops, None);
                Op::For { slot: slot.0, lo, hi, body: self.block(body) }
            }
            Stmt::Let { slot, value, .. } => {
                let src = self.expr(value, ops, Some(slot.0));
                if src == slot.0 {
                    return;
                }
                Op::Mov { dst: slot.0, src }
            }
            Stmt::If { cond, body } => {
                // `if (c1 && c2 && …)` runs as nested one-clause ifs, so the
                // clauses evaluate left to right and stop at the first false
                // one. Only the innermost block counts the body's statements.
                let always = [(Expr::Const(0), CmpOp::Eq, Expr::Const(0))];
                let clauses = if cond.clauses.is_empty() { &always[..] } else { &cond.clauses };
                let mut lowered: Vec<_> = clauses
                    .iter()
                    .map(|(a, op, b)| {
                        let mut pre = Vec::new();
                        let a = self.expr(a, &mut pre, None);
                        let b = self.expr(b, &mut pre, None);
                        (pre, a, *op, b)
                    })
                    .collect();
                let mut body = self.block(body);
                let (outer, a, op, b) = lowered.remove(0);
                for (mut pre, a, op, b) in lowered.into_iter().rev() {
                    pre.push(Op::If { a, op, b, body });
                    body = Block { ops: pre.into(), stmts: 0 };
                }
                ops.extend(outer);
                Op::If { a, op, b, body }
            }
            Stmt::FindBinary { slot, lo, hi, key, target, body, .. } => {
                let lo = self.expr(lo, ops, None);
                let hi = self.expr(hi, ops, None);
                let mut key_ops = Vec::new();
                let key_reg = self.expr(key, &mut key_ops, None);
                let target = self.expr(target, ops, None);
                let key = Block { ops: key_ops.into(), stmts: 0 };
                let body = self.block(body);
                Op::Find(Box::new(Find { slot: slot.0, lo, hi, target, key, key_reg, body }))
            }
            Stmt::UfWrite { uf, idx, value } => Op::UfWrite {
                uf: self.ufs.intern(uf),
                idx: self.expr(idx, ops, None),
                value: self.expr(value, ops, None),
            },
            Stmt::UfMin { uf, idx, value } => Op::UfMin {
                uf: self.ufs.intern(uf),
                idx: self.expr(idx, ops, None),
                value: self.expr(value, ops, None),
            },
            Stmt::UfMax { uf, idx, value } => Op::UfMax {
                uf: self.ufs.intern(uf),
                idx: self.expr(idx, ops, None),
                value: self.expr(value, ops, None),
            },
            Stmt::UfAlloc { uf, size, init } => {
                let uf = self.ufs.intern(uf);
                let size = self.expr(size, ops, None);
                let mut init_ops = Vec::new();
                let init = self.expr(init, &mut init_ops, None);
                if !init_ops.is_empty() {
                    ops.push(Op::NonNeg { uf, size });
                    ops.append(&mut init_ops);
                }
                Op::UfAlloc { uf, size, init }
            }
            Stmt::DataAlloc { arr, size } => {
                let mut factors = Vec::new();
                product_factors(size, &mut factors);
                let size = factors.iter().map(|f| self.expr(f, ops, None)).collect();
                Op::DataAlloc { arr: self.data.intern(arr), size }
            }
            Stmt::ListInsert { list, args } => {
                Op::ListInsert { list: self.lists.intern(list), args: self.args(args, ops) }
            }
            Stmt::ListFinalize { list } => Op::ListFinalize { list: self.lists.intern(list) },
            Stmt::ListToUf { list, dim, uf } => Op::ListToUf {
                list: self.lists.intern(list),
                dim: *dim,
                uf: self.ufs.intern(uf),
            },
            Stmt::SymSet { sym, value } => {
                Op::SymSet { sym: self.syms.intern(sym), value: self.expr(value, ops, None) }
            }
            Stmt::DataAxpy { y, y_idx, a, a_idx, x, x_idx } => Op::DataAxpy {
                y: self.data.intern(y),
                y_idx: self.expr(y_idx, ops, None),
                a: self.data.intern(a),
                a_idx: self.expr(a_idx, ops, None),
                x: self.data.intern(x),
                x_idx: self.expr(x_idx, ops, None),
            },
            Stmt::Copy { dst, dst_idx, src, src_idx } => Op::Copy {
                dst: self.data.intern(dst),
                dst_idx: self.expr(dst_idx, ops, None),
                src: self.data.intern(src),
                src_idx: self.expr(src_idx, ops, None),
            },
            Stmt::Comment(_) => return,
        };
        ops.push(op);
    }
}

/// Pushes the factors of the product `e` onto `out`, so an allocation
/// multiplies them with overflow checks rather than through `Op::Mul`.
fn product_factors<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Mul(a, b) => {
            product_factors(a, out);
            product_factors(b, out);
        }
        _ => out.push(e),
    }
}

/// Compiles a statement list into an executable [`Program`].
pub fn compile(stmts: &[Stmt], slots: &SlotAlloc) -> Program {
    let mut c = Compiler { regs: vec![0; slots.len()], ..Compiler::default() };
    let main = c.block(stmts);
    Program {
        main,
        regs: c.regs,
        syms: c.syms.names,
        ufs: c.ufs.names,
        data: c.data.names,
        lists: c.lists.names,
    }
}

/// Why an array access failed; the caller names the array.
enum Fault {
    Unbound,
    Oob { idx: i64, len: usize },
}

#[inline(always)]
fn at<'s, T: Clone>(arr: &'s Option<Cow<'_, [T]>>, idx: i64) -> Result<&'s T, Fault> {
    let a = arr.as_deref().ok_or(Fault::Unbound)?;
    usize::try_from(idx).ok().and_then(|i| a.get(i)).ok_or(Fault::Oob { idx, len: a.len() })
}

/// [`at`] for a write. Clone-on-first-write: an array bound as
/// `Cow::Borrowed` is copied here exactly once, after the bounds check;
/// an owned array mutates in place.
#[inline(always)]
fn at_mut<'s, T: Clone>(arr: &'s mut Option<Cow<'_, [T]>>, idx: i64) -> Result<&'s mut T, Fault> {
    let a = arr.as_mut().ok_or(Fault::Unbound)?;
    match usize::try_from(idx) {
        Ok(i) if i < a.len() => Ok(&mut a.to_mut()[i]),
        _ => Err(Fault::Oob { idx, len: a.len() }),
    }
}

#[cold]
fn uf_fault(prog: &Program, uf: u32, fault: Fault) -> ExecError {
    let name = prog.ufs[uf as usize].clone();
    match fault {
        Fault::Unbound => ExecError::UnboundUf(name),
        Fault::Oob { idx, len } => ExecError::OobUf { name, idx, len },
    }
}

#[cold]
fn data_fault(prog: &Program, arr: u32, fault: Fault) -> ExecError {
    let name = prog.data[arr as usize].clone();
    match fault {
        Fault::Unbound => ExecError::UnboundData(name),
        Fault::Oob { idx, len } => ExecError::OobData { name, idx, len },
    }
}

#[cold]
fn unbound_sym(prog: &Program, sym: u32) -> ExecError {
    ExecError::UnboundSym(prog.syms[sym as usize].clone())
}

#[cold]
fn unbound_list(prog: &Program, list: u32) -> ExecError {
    ExecError::UnboundList(prog.lists[list as usize].clone())
}

#[cold]
fn bad_alloc(names: &[String], arr: u32, size: i64) -> ExecError {
    ExecError::BadAlloc { name: names[arr as usize].clone(), size }
}

/// The bytes a run's allocations have taken, and the most they may take.
struct Budget {
    used: u64,
    limit: Option<u64>,
}

impl Budget {
    /// The one place a run allocates an array: `len` elements of `fill`
    /// (`None` when the element count overflowed) for array `names[id]`.
    /// The byte size is checked, added to the run's total and held to
    /// the limit before the allocator is asked, and the allocator may
    /// refuse; each failure is a typed error naming the array. Kept out
    /// of line: a run allocates a handful of times, and the op loop
    /// stays as compact as before.
    #[inline(never)]
    fn alloc<T: Clone>(
        &mut self,
        names: &[String],
        id: u32,
        len: Option<usize>,
        fill: T,
    ) -> Result<Vec<T>, ExecError> {
        let bytes = len.and_then(|n| n.checked_mul(std::mem::size_of::<T>()));
        let total = bytes.and_then(|b| self.used.checked_add(b as u64));
        let name = || names[id as usize].clone();
        if let Some(budget) = self.limit {
            let needed = total.unwrap_or(u64::MAX);
            if needed > budget {
                return Err(ExecError::OverBudget { name: name(), needed, budget });
            }
        }
        let (Some(n), Some(bytes), Some(total)) = (len, bytes, total) else {
            return Err(ExecError::AllocOverflow { name: name() });
        };
        let mut v = Vec::new();
        v.try_reserve_exact(n)
            .map_err(|_| ExecError::AllocFailed { name: name(), bytes: bytes as u64 })?;
        v.resize(n, fill);
        self.used = total;
        Ok(v)
    }
}

/// A run's state: the register file, and the symbols, arrays and lists
/// moved out of the environment, indexed like the program's name tables.
struct State<'a> {
    regs: Vec<i64>,
    syms: Vec<Option<i64>>,
    ufs: Vec<Option<Cow<'a, [i64]>>>,
    data: Vec<Option<Cow<'a, [f64]>>>,
    lists: Vec<Option<OrderedList>>,
    budget: Budget,
    stats: ExecStats,
    key: Vec<i64>,
}

impl State<'_> {
    #[inline(always)]
    fn reg(&self, r: Reg) -> i64 {
        self.regs[r as usize]
    }

    #[inline(always)]
    fn set(&mut self, r: Reg, v: i64) {
        self.regs[r as usize] = v;
    }

    /// Runs `block`. `STATS` selects at monomorphization time whether
    /// [`ExecStats`] are counted, so the quiet run carries no counting in
    /// its hot loops.
    fn block<const STATS: bool>(
        &mut self,
        prog: &Program,
        block: &Block,
    ) -> Result<(), ExecError> {
        if STATS {
            self.stats.statements += block.stmts;
        }
        for op in block.ops.iter() {
            match *op {
                Op::Mov { dst, src } => self.set(dst, self.reg(src)),
                Op::Sym { dst, sym } => {
                    let v = self.syms[sym as usize].ok_or_else(|| unbound_sym(prog, sym))?;
                    self.set(dst, v);
                }
                Op::UfRead { dst, uf, idx } => {
                    let i = self.reg(idx);
                    let v = *at(&self.ufs[uf as usize], i).map_err(|f| uf_fault(prog, uf, f))?;
                    self.set(dst, v);
                }
                Op::ListRank { dst, list, ref args } => {
                    self.key.clear();
                    self.key.extend(args.iter().map(|&a| self.regs[a as usize]));
                    let l = self.lists[list as usize]
                        .as_mut()
                        .ok_or_else(|| unbound_list(prog, list))?;
                    let rank = l.rank_next(&self.key)?;
                    self.set(dst, rank);
                }
                Op::ListLen { dst, list } => {
                    let l = self.lists[list as usize]
                        .as_ref()
                        .ok_or_else(|| unbound_list(prog, list))?;
                    self.set(dst, l.len() as i64);
                }
                Op::Add(dst, a, b) => self.set(dst, self.reg(a).wrapping_add(self.reg(b))),
                Op::Sub(dst, a, b) => self.set(dst, self.reg(a).wrapping_sub(self.reg(b))),
                Op::Mul(dst, a, b) => self.set(dst, self.reg(a).wrapping_mul(self.reg(b))),
                Op::Div(dst, a, b) => self.set(dst, self.reg(a).div_euclid(self.reg(b))),
                Op::Min(dst, a, b) => self.set(dst, self.reg(a).min(self.reg(b))),
                Op::Max(dst, a, b) => self.set(dst, self.reg(a).max(self.reg(b))),
                Op::NonZero { r } => {
                    if self.reg(r) == 0 {
                        return Err(ExecError::DivByZero);
                    }
                }
                Op::NonNeg { uf, size } => {
                    if self.reg(size) < 0 {
                        return Err(bad_alloc(&prog.ufs, uf, self.reg(size)));
                    }
                }
                Op::For { slot, lo, hi, ref body } => {
                    for v in self.reg(lo)..self.reg(hi) {
                        self.set(slot, v);
                        if STATS {
                            self.stats.loop_iterations += 1;
                        }
                        self.block::<STATS>(prog, body)?;
                    }
                }
                Op::If { a, op, b, ref body } => {
                    if op.eval(self.reg(a), self.reg(b)) {
                        self.block::<STATS>(prog, body)?;
                    }
                }
                Op::Find(ref f) => {
                    // Leftmost position where key(pos) >= target, by
                    // bisection; the key is monotone non-decreasing by
                    // construction. `hi` was evaluated once, before the
                    // search, so its original value bounds the final probe.
                    let (mut lo, end) = (self.reg(f.lo), self.reg(f.hi));
                    let (mut hi, target) = (end, self.reg(f.target));
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        self.set(f.slot, mid);
                        if STATS {
                            self.stats.loop_iterations += 1;
                        }
                        self.block::<STATS>(prog, &f.key)?;
                        if self.reg(f.key_reg) < target {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    if lo < end {
                        self.set(f.slot, lo);
                        self.block::<STATS>(prog, &f.key)?;
                        if self.reg(f.key_reg) == target {
                            self.block::<STATS>(prog, &f.body)?;
                        }
                    }
                }
                Op::UfWrite { uf, idx, value } => {
                    let (i, v) = (self.reg(idx), self.reg(value));
                    *at_mut(&mut self.ufs[uf as usize], i).map_err(|f| uf_fault(prog, uf, f))? = v;
                }
                Op::UfMin { uf, idx, value } => {
                    let (i, v) = (self.reg(idx), self.reg(value));
                    let e = at_mut(&mut self.ufs[uf as usize], i);
                    let e = e.map_err(|f| uf_fault(prog, uf, f))?;
                    *e = v.min(*e);
                }
                Op::UfMax { uf, idx, value } => {
                    let (i, v) = (self.reg(idx), self.reg(value));
                    let e = at_mut(&mut self.ufs[uf as usize], i);
                    let e = e.map_err(|f| uf_fault(prog, uf, f))?;
                    *e = v.max(*e);
                }
                Op::UfAlloc { uf, size, init } => {
                    let n = self.reg(size);
                    let n = usize::try_from(n).map_err(|_| bad_alloc(&prog.ufs, uf, n))?;
                    let v = self.budget.alloc(&prog.ufs, uf, Some(n), self.reg(init))?;
                    self.ufs[uf as usize] = Some(Cow::Owned(v));
                }
                Op::DataAlloc { arr, ref size } => {
                    let mut n = Some(1usize);
                    for &f in size.iter() {
                        let v = self.reg(f);
                        let v = usize::try_from(v).map_err(|_| bad_alloc(&prog.data, arr, v))?;
                        n = n.and_then(|n| n.checked_mul(v));
                    }
                    let v = self.budget.alloc(&prog.data, arr, n, 0.0)?;
                    self.data[arr as usize] = Some(Cow::Owned(v));
                }
                Op::ListInsert { list, ref args } => {
                    self.key.clear();
                    self.key.extend(args.iter().map(|&a| self.regs[a as usize]));
                    let l = self.lists[list as usize]
                        .as_mut()
                        .ok_or_else(|| unbound_list(prog, list))?;
                    l.insert(&self.key)?;
                }
                Op::ListFinalize { list } => {
                    let l = self.lists[list as usize]
                        .as_mut()
                        .ok_or_else(|| unbound_list(prog, list))?;
                    l.finalize();
                }
                Op::ListToUf { list, dim, uf } => {
                    let l = self.lists[list as usize]
                        .as_ref()
                        .ok_or_else(|| unbound_list(prog, list))?;
                    let mut col = self.budget.alloc(&prog.ufs, uf, Some(l.len()), 0)?;
                    for (p, c) in col.iter_mut().enumerate() {
                        *c = l.key_col(p, dim)?;
                    }
                    self.ufs[uf as usize] = Some(Cow::Owned(col));
                }
                Op::SymSet { sym, value } => self.syms[sym as usize] = Some(self.reg(value)),
                Op::DataAxpy { y, y_idx, a, a_idx, x, x_idx } => {
                    let (yi, ai, xi) = (self.reg(y_idx), self.reg(a_idx), self.reg(x_idx));
                    let av = *at(&self.data[a as usize], ai).map_err(|f| data_fault(prog, a, f))?;
                    let xv = *at(&self.data[x as usize], xi).map_err(|f| data_fault(prog, x, f))?;
                    *at_mut(&mut self.data[y as usize], yi).map_err(|f| data_fault(prog, y, f))? +=
                        av * xv;
                }
                Op::Copy { dst, dst_idx, src, src_idx } => {
                    let (di, si) = (self.reg(dst_idx), self.reg(src_idx));
                    let v = *at(&self.data[src as usize], si)
                        .map_err(|f| data_fault(prog, src, f))?;
                    *at_mut(&mut self.data[dst as usize], di)
                        .map_err(|f| data_fault(prog, dst, f))? = v;
                }
            }
        }
        Ok(())
    }
}

fn run<const STATS: bool>(prog: &Program, env: &mut RtEnv<'_>) -> Result<ExecStats, ExecError> {
    let mut st = State {
        regs: prog.regs.clone(),
        syms: prog.syms.iter().map(|n| env.syms.get(n).copied()).collect(),
        ufs: prog.ufs.iter().map(|n| env.ufs.remove(n)).collect(),
        data: prog.data.iter().map(|n| env.data.remove(n)).collect(),
        lists: prog.lists.iter().map(|n| env.lists.remove(n)).collect(),
        budget: Budget { used: 0, limit: env.budget },
        stats: ExecStats::default(),
        key: Vec::with_capacity(4),
    };
    let result = st.block::<STATS>(prog, &prog.main);
    // Move state back regardless of success so callers can inspect it.
    restore(&prog.syms, st.syms, &mut env.syms);
    restore(&prog.ufs, st.ufs, &mut env.ufs);
    restore(&prog.data, st.data, &mut env.data);
    restore(&prog.lists, st.lists, &mut env.lists);
    result.map(|()| st.stats)
}

fn restore<T>(names: &[String], vals: Vec<Option<T>>, into: &mut BTreeMap<String, T>) {
    into.extend(names.iter().zip(vals).filter_map(|(name, v)| Some((name.clone(), v?))));
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
    run::<true>(prog, env)
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
    run::<false>(prog, env).map(|_| ())
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

    /// Runs `stmts` on `env` and returns the error it must raise.
    fn exec_err(stmts: Vec<Stmt>, mut env: RtEnv<'_>) -> ExecError {
        let prog = compile(&stmts, &SlotAlloc::new());
        let err = execute(&prog, &mut env).unwrap_err();
        assert_eq!(execute_quiet(&prog, &mut env).unwrap_err(), err, "quiet path agrees");
        err
    }

    fn write_out(value: Expr) -> Stmt {
        Stmt::UfWrite { uf: "out".into(), idx: Expr::Const(0), value }
    }

    #[test]
    fn runtime_division_by_zero_checks_divisor_first() {
        let env = || RtEnv::new().with_sym("Z", 0).with_uf("a", vec![1]).with_uf("out", vec![0]);
        let div = Expr::div(Expr::Const(6), Expr::Sym("Z".into()));
        assert_eq!(exec_err(vec![write_out(div)], env()), ExecError::DivByZero);
        // An out-of-bounds dividend is never read: the zero divisor wins.
        let div = Expr::div(Expr::uf_read("a", Expr::Const(9)), Expr::Sym("Z".into()));
        assert_eq!(exec_err(vec![write_out(div)], env()), ExecError::DivByZero);
        // A literal division by zero is not folded away.
        let div = Expr::div(Expr::Const(6), Expr::Const(0));
        assert_eq!(exec_err(vec![write_out(div)], env()), ExecError::DivByZero);
    }

    #[test]
    fn negative_allocations_name_the_array() {
        let uf = Stmt::UfAlloc { uf: "u".into(), size: Expr::Const(-3), init: Expr::Const(0) };
        assert_eq!(
            exec_err(vec![uf], RtEnv::new()),
            ExecError::BadAlloc { name: "u".into(), size: -3 }
        );
        let data = Stmt::DataAlloc { arr: "D".into(), size: Expr::Sym("N".into()) };
        assert_eq!(
            exec_err(vec![data], RtEnv::new().with_sym("N", -2)),
            ExecError::BadAlloc { name: "D".into(), size: -2 }
        );
    }

    /// Every allocation goes through one checked, budgeted helper: the
    /// factor product of a data size is checked, and the run's total is
    /// held to the environment's budget, counting `ListToUf` too.
    #[test]
    fn allocations_are_checked_and_budgeted() {
        let data = Stmt::DataAlloc {
            arr: "D".into(),
            size: Expr::mul(Expr::Sym("N".into()), Expr::Const(16)),
        };
        assert_eq!(
            exec_err(vec![data], RtEnv::new().with_sym("N", (1 << 60) + 1)),
            ExecError::AllocOverflow { name: "D".into() }
        );
        let stmts = vec![
            Stmt::UfAlloc { uf: "u".into(), size: Expr::Const(3), init: Expr::Const(0) },
            Stmt::ListInsert { list: "L".into(), args: vec![Expr::Const(5)] },
            Stmt::ListFinalize { list: "L".into() },
            Stmt::ListToUf { list: "L".into(), dim: 0, uf: "v".into() },
            Stmt::DataAlloc { arr: "D".into(), size: Expr::Const(2) },
        ];
        let env = |budget| RtEnv {
            budget: Some(budget),
            ..RtEnv::new().with_list("L", OrderedList::new(1, ListOrder::Lexicographic, true))
        };
        let prog = compile(&stmts, &SlotAlloc::new());
        execute(&prog, &mut env(48)).unwrap();
        assert_eq!(
            execute_quiet(&prog, &mut env(47)).unwrap_err(),
            ExecError::OverBudget { name: "D".into(), needed: 48, budget: 47 }
        );
        assert_eq!(
            execute(&prog, &mut env(31)).unwrap_err(),
            ExecError::OverBudget { name: "v".into(), needed: 32, budget: 31 }
        );
    }

    #[test]
    fn copy_out_of_bounds_names_source_then_destination() {
        let copy = |dst_idx, src_idx| Stmt::Copy {
            dst: "B".into(),
            dst_idx: Expr::Const(dst_idx),
            src: "A".into(),
            src_idx: Expr::Const(src_idx),
        };
        let env = || RtEnv::new().with_data("A", vec![1.0, 2.0]).with_data("B", vec![0.0; 3]);
        assert_eq!(
            exec_err(vec![copy(7, 5)], env()),
            ExecError::OobData { name: "A".into(), idx: 5, len: 2 }
        );
        assert_eq!(
            exec_err(vec![copy(-1, 1)], env()),
            ExecError::OobData { name: "B".into(), idx: -1, len: 3 }
        );
    }

    #[test]
    fn unbound_names_and_early_rank() {
        let env = || RtEnv::new().with_uf("out", vec![0]);
        assert_eq!(
            exec_err(vec![write_out(Expr::Sym("NNZ".into()))], env()),
            ExecError::UnboundSym("NNZ".into())
        );
        assert_eq!(
            exec_err(vec![write_out(Expr::ListLen("P".into()))], env()),
            ExecError::UnboundList("P".into())
        );
        assert_eq!(
            exec_err(vec![Stmt::ListFinalize { list: "P".into() }], RtEnv::new()),
            ExecError::UnboundList("P".into())
        );
        let rank = Expr::ListRank { list: "P".into(), args: vec![Expr::Const(1)] };
        let stmts = vec![
            Stmt::ListInsert { list: "P".into(), args: vec![Expr::Const(1)] },
            write_out(rank),
        ];
        let list = OrderedList::new(1, ListOrder::Lexicographic, false);
        assert_eq!(
            exec_err(stmts, env().with_list("P", list)),
            ExecError::List(ListError::NotFinalized)
        );
    }

    #[test]
    fn evaluation_order_is_index_first_and_guards_short_circuit() {
        // Both the index and the value fail; the index is evaluated first.
        let stmts = vec![Stmt::UfWrite {
            uf: "out".into(),
            idx: Expr::uf_read("a", Expr::Const(4)),
            value: Expr::Sym("MISSING".into()),
        }];
        let env = RtEnv::new().with_uf("a", vec![0]).with_uf("out", vec![0]);
        assert_eq!(exec_err(stmts, env), ExecError::OobUf { name: "a".into(), idx: 4, len: 1 });

        // A false first clause skips the second, which would fail.
        let stmts = vec![Stmt::If {
            cond: Cond {
                clauses: vec![
                    (Expr::Const(0), CmpOp::Eq, Expr::Const(1)),
                    (Expr::Sym("MISSING".into()), CmpOp::Eq, Expr::Const(1)),
                ],
            },
            body: vec![write_out(Expr::Const(5))],
        }];
        let prog = compile(&stmts, &SlotAlloc::new());
        let mut env = RtEnv::new().with_uf("out", vec![0]);
        let stats = execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["out"], vec![0]);
        assert_eq!(stats, ExecStats { loop_iterations: 0, statements: 1 });
    }
}
