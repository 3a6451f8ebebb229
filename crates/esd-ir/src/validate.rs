//! Structural validation of IR programs.
//!
//! Validation catches malformed programs early (dangling block targets,
//! out-of-range registers, arity mismatches at direct call sites, …) so that
//! the interpreter and the symbolic engine can index unchecked-by-construction
//! data without defensive code at every step.

use crate::inst::{Callee, Inst, Operand};
use crate::program::{Function, Program};
use crate::types::{BlockId, FuncId};
use std::fmt;

/// A single validation problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Function in which the problem was found (if applicable).
    pub func: Option<FuncId>,
    /// Block in which the problem was found (if applicable).
    pub block: Option<BlockId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.func, self.block) {
            (Some(fun), Some(bb)) => write!(f, "[{:?}:{:?}] {}", fun, bb, self.message),
            (Some(fun), None) => write!(f, "[{:?}] {}", fun, self.message),
            _ => write!(f, "{}", self.message),
        }
    }
}

/// Validates a program, returning all problems found (empty vector = valid).
pub fn validate(program: &Program) -> Result<(), Vec<ValidationError>> {
    let mut errors = Vec::new();

    if program.functions.is_empty() {
        errors.push(ValidationError {
            func: None,
            block: None,
            message: "program has no functions".to_string(),
        });
    }
    if program.entry.0 as usize >= program.functions.len() {
        errors.push(ValidationError {
            func: None,
            block: None,
            message: format!("entry function {:?} out of range", program.entry),
        });
    } else if program.func(program.entry).num_params != 0 {
        errors.push(ValidationError {
            func: Some(program.entry),
            block: None,
            message: "entry function must take no parameters".to_string(),
        });
    }

    for (gi, g) in program.globals.iter().enumerate() {
        if g.init.len() > g.size as usize {
            errors.push(ValidationError {
                func: None,
                block: None,
                message: format!("global #{gi} {:?}: initializer longer than size", g.name),
            });
        }
        if g.size == 0 {
            errors.push(ValidationError {
                func: None,
                block: None,
                message: format!("global #{gi} {:?}: zero-sized", g.name),
            });
        }
    }

    for (fi, f) in program.functions.iter().enumerate() {
        let fid = FuncId(fi as u32);
        validate_function(program, fid, f, &mut errors);
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn validate_function(
    program: &Program,
    fid: FuncId,
    f: &Function,
    errors: &mut Vec<ValidationError>,
) {
    let mut err = |block: Option<BlockId>, message: String| {
        errors.push(ValidationError { func: Some(fid), block, message });
    };

    if f.blocks.is_empty() {
        err(None, "function has no blocks".to_string());
        return;
    }
    if f.num_params > f.num_regs {
        err(None, format!("num_params {} exceeds num_regs {}", f.num_params, f.num_regs));
    }

    let check_operand = |op: Operand| -> Option<String> {
        match op {
            Operand::Reg(r) if r.0 >= f.num_regs => {
                Some(format!("register {:?} out of range (num_regs = {})", r, f.num_regs))
            }
            _ => None,
        }
    };

    for (bi, block) in f.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        for inst in &block.insts {
            if let Some(dst) = inst.def() {
                if dst.0 >= f.num_regs {
                    err(Some(bid), format!("destination {:?} out of range", dst));
                }
            }
            for op in inst.uses() {
                if let Some(msg) = check_operand(op) {
                    err(Some(bid), msg);
                }
            }
            match inst {
                Inst::AddrLocal { local, .. } if local.0 as usize >= f.local_sizes.len() => {
                    err(Some(bid), format!("local {:?} out of range", local));
                }
                Inst::AddrGlobal { global, .. } if global.0 as usize >= program.globals.len() => {
                    err(Some(bid), format!("global {:?} out of range", global));
                }
                Inst::FuncAddr { func, .. } if func.0 as usize >= program.functions.len() => {
                    err(Some(bid), format!("function address {:?} out of range", func));
                }
                Inst::Call { callee: Callee::Direct(target), args, .. } => {
                    if target.0 as usize >= program.functions.len() {
                        err(Some(bid), format!("call target {:?} out of range", target));
                    } else {
                        let callee_fn = program.func(*target);
                        if callee_fn.num_params as usize != args.len() {
                            err(
                                Some(bid),
                                format!(
                                    "call to {:?} passes {} args but it takes {}",
                                    callee_fn.name,
                                    args.len(),
                                    callee_fn.num_params
                                ),
                            );
                        }
                    }
                }
                Inst::ThreadSpawn { func: Callee::Direct(target), .. } => {
                    if target.0 as usize >= program.functions.len() {
                        err(Some(bid), format!("spawn target {:?} out of range", target));
                    } else if program.func(*target).num_params != 1 {
                        err(
                            Some(bid),
                            format!(
                                "spawned function {:?} must take exactly one parameter",
                                program.func(*target).name
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
        for op in block.term.uses() {
            if let Some(msg) = check_operand(op) {
                err(Some(bid), msg);
            }
        }
        for succ in block.term.successors() {
            if succ.0 as usize >= f.blocks.len() {
                err(Some(bid), format!("branch target {:?} out of range", succ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{BinOp, Terminator};
    use crate::program::{BasicBlock, Global};
    use crate::types::Reg;

    fn valid_program() -> Program {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 0, |f| {
            let a = f.konst(1);
            f.output(a);
            f.ret_void();
        });
        pb.finish("main")
    }

    #[test]
    fn valid_program_passes() {
        assert!(validate(&valid_program()).is_ok());
    }

    #[test]
    fn out_of_range_register_is_reported() {
        let mut p = valid_program();
        p.functions[0].blocks[0].insts.push(Inst::Bin {
            dst: Reg(99),
            op: BinOp::Add,
            a: Operand::Reg(Reg(98)),
            b: Operand::Const(1),
        });
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("out of range")));
    }

    #[test]
    fn dangling_branch_target_is_reported() {
        let mut p = valid_program();
        p.functions[0].blocks[0].term = Terminator::Br { target: BlockId(7) };
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("branch target")));
    }

    #[test]
    fn call_arity_mismatch_is_reported() {
        let mut pb = ProgramBuilder::new("p");
        let callee = pb.function("callee", 2, |f| {
            let s = f.add(f.param(0), f.param(1));
            f.ret(s);
        });
        pb.function("main", 0, |f| {
            f.call(callee, vec![Operand::Const(1)]);
            f.ret_void();
        });
        let p = pb.finish("main");
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("passes 1 args")));
    }

    #[test]
    fn entry_with_params_is_rejected() {
        let mut pb = ProgramBuilder::new("p");
        pb.function("main", 1, |f| f.ret_void());
        let p = pb.finish("main");
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("no parameters")));
    }

    #[test]
    fn spawn_target_arity_checked() {
        let mut pb = ProgramBuilder::new("p");
        let worker = pb.function("worker", 2, |f| f.ret_void());
        pb.function("main", 0, |f| {
            f.spawn(worker, 0);
            f.ret_void();
        });
        let p = pb.finish("main");
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("exactly one parameter")));
    }

    #[test]
    fn oversized_global_initializer_is_reported() {
        let mut p = valid_program();
        p.globals.push(Global { name: "g".into(), size: 1, init: vec![1, 2, 3] });
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("initializer longer")));
    }

    #[test]
    fn function_without_blocks_is_reported() {
        let mut p = valid_program();
        p.functions.push(Function {
            name: "empty".into(),
            num_params: 0,
            num_regs: 0,
            local_sizes: vec![],
            blocks: vec![],
        });
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("no blocks")));
    }

    #[test]
    fn error_display_mentions_location() {
        let mut p = valid_program();
        p.functions[0].blocks.push(BasicBlock::new(None));
        p.functions[0].blocks[1].term = Terminator::Br { target: BlockId(42) };
        let errs = validate(&p).unwrap_err();
        let rendered = format!("{}", errs[0]);
        assert!(rendered.contains("f0"));
    }
}
