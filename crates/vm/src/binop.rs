//! Operator semantics shared by the interpreter and the compiled overlay.
//!
//! The interpreter's [`crate::interp`] step and the fused code of
//! [`crate::compile`] must agree on every operator down to the last
//! bit — the differential suite (`tests/diff_props.rs`) checks that, but
//! sharing one implementation is what makes the property boring.
//! Historically the `+` string-concatenation rule lived in a special
//! case *before* the interpreter's generic arithmetic match (and only
//! there); it is now one arm of the single [`arith`] match that both
//! engines call.

use std::sync::Arc;

use crate::bytecode::Op;
use crate::error::VmError;
use crate::value::Value;

/// Pop the operand stack, surfacing underflow as corrupt code.
pub(crate) fn pop(stack: &mut Vec<Value>) -> Result<Value, VmError> {
    stack.pop().ok_or(VmError::Corrupt("operand stack underflow"))
}

/// Binary arithmetic (`+ - * / %`) over messenger values.
pub(crate) fn arith(op: &Op, a: Value, b: Value) -> Result<Value, VmError> {
    match (op, &a, &b) {
        // String concatenation with `+` when either side is a string
        // (used to build node/link names). NULL concatenates as the
        // empty string.
        (Op::Add, Value::Str(_), _) | (Op::Add, _, Value::Str(_)) => {
            let show = |v: &Value| match v {
                Value::Null => String::new(),
                other => other.to_string(),
            };
            Ok(Value::str(format!("{}{}", show(&a), show(&b))))
        }
        _ => {
            // Never-assigned node variables read as NULL; arithmetically
            // NULL is zero, so scripts can use node variables as
            // counters without an initialization pass.
            let a = if a == Value::Null { Value::Int(0) } else { a };
            let b = if b == Value::Null { Value::Int(0) } else { b };
            match (&a, &b) {
                (Value::Int(x), Value::Int(y)) => {
                    let (x, y) = (*x, *y);
                    Ok(Value::Int(match op {
                        Op::Add => x.wrapping_add(y),
                        Op::Sub => x.wrapping_sub(y),
                        Op::Mul => x.wrapping_mul(y),
                        Op::Div => {
                            if y == 0 {
                                return Err(VmError::DivisionByZero);
                            }
                            x.wrapping_div(y)
                        }
                        Op::Mod => {
                            if y == 0 {
                                return Err(VmError::DivisionByZero);
                            }
                            x.wrapping_rem(y)
                        }
                        _ => unreachable!(),
                    }))
                }
                _ => {
                    let x = a.as_float()?;
                    let y = b.as_float()?;
                    Ok(Value::Float(match op {
                        Op::Add => x + y,
                        Op::Sub => x - y,
                        Op::Mul => x * y,
                        Op::Div => x / y,
                        Op::Mod => x % y,
                        _ => unreachable!(),
                    }))
                }
            }
        }
    }
}

/// Ordered comparison (`< <= > >=`) over messenger values.
pub(crate) fn compare(op: &Op, a: &Value, b: &Value) -> Result<Value, VmError> {
    use std::cmp::Ordering;
    // NULL orders as zero (see `arith`).
    let a = if *a == Value::Null { &Value::Int(0) } else { a };
    let b = if *b == Value::Null { &Value::Int(0) } else { b };
    let ord: Ordering = match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => {
            let x = a.as_float()?;
            let y = b.as_float()?;
            x.total_cmp(&y)
        }
    };
    Ok(Value::Bool(match op {
        Op::Lt => ord == Ordering::Less,
        Op::Le => ord != Ordering::Greater,
        Op::Gt => ord == Ordering::Greater,
        Op::Ge => ord != Ordering::Less,
        _ => unreachable!(),
    }))
}

/// Arithmetic negation: integers wrap, everything else promotes to float.
pub(crate) fn neg(a: Value) -> Result<Value, VmError> {
    Ok(match a {
        Value::Int(i) => Value::Int(i.wrapping_neg()),
        other => Value::Float(-other.as_float()?),
    })
}

/// `MakeArr`: an `n`-element array of `default`, bounded at 2^24.
pub(crate) fn make_arr(n: i64, default: Value) -> Result<Value, VmError> {
    if !(0..=(1 << 24)).contains(&n) {
        return Err(VmError::Native(format!("bad array size {n}")));
    }
    Ok(Value::Arr(Arc::new(vec![default; n as usize])))
}

/// `IndexGet`: element `idx` of an array value.
pub(crate) fn index_get(arr: &Value, idx: i64) -> Result<Value, VmError> {
    let arr = arr.as_array()?;
    arr.get(
        usize::try_from(idx)
            .map_err(|_| VmError::Native(format!("array index {idx} out of bounds")))?,
    )
    .ok_or_else(|| VmError::Native(format!("array index {idx} out of bounds (len {})", arr.len())))
    .cloned()
}

/// `IndexSet`: the array with element `idx` replaced (copy-on-write).
pub(crate) fn index_set(arr: Value, idx: i64, value: Value) -> Result<Value, VmError> {
    let mut arr = match arr {
        Value::Arr(a) => a,
        other => return Err(VmError::type_error("array", &other)),
    };
    let len = arr.len();
    let slot = Arc::make_mut(&mut arr)
        .get_mut(usize::try_from(idx).unwrap_or(usize::MAX))
        .ok_or_else(|| VmError::Native(format!("array index {idx} out of bounds (len {len})")))?;
    *slot = value;
    Ok(Value::Arr(arr))
}

/// Relative jump targets: offsets are from the *next* instruction.
pub(crate) fn jump(pc: u32, off: i32) -> u32 {
    (pc as i64 + off as i64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_concatenates_when_either_side_is_a_string() {
        let v = arith(&Op::Add, Value::str("n"), Value::Int(3)).unwrap();
        assert_eq!(v, Value::str("n3"));
        let v = arith(&Op::Add, Value::Null, Value::str("x")).unwrap();
        assert_eq!(v, Value::str("x"));
    }

    #[test]
    fn null_is_zero_in_arithmetic_and_comparison() {
        assert_eq!(arith(&Op::Add, Value::Null, Value::Int(2)).unwrap(), Value::Int(2));
        assert_eq!(compare(&Op::Lt, &Value::Null, &Value::Int(1)).unwrap(), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_is_a_runtime_error() {
        assert!(matches!(
            arith(&Op::Div, Value::Int(1), Value::Int(0)),
            Err(VmError::DivisionByZero)
        ));
        assert!(matches!(
            arith(&Op::Mod, Value::Int(1), Value::Int(0)),
            Err(VmError::DivisionByZero)
        ));
    }

    #[test]
    fn neg_wraps_ints_and_promotes_floats() {
        assert_eq!(neg(Value::Int(i64::MIN)).unwrap(), Value::Int(i64::MIN));
        assert_eq!(neg(Value::Float(1.5)).unwrap(), Value::Float(-1.5));
    }
}
