//! The host speed index.
//!
//! The hosts this benchmark runs on are shared, and their speed drifts
//! by a quarter or more over tens of seconds, uniformly across every
//! program and preset. A reference interpreter written here, and never
//! changed by a change to the repository, is timed between the
//! workload's steps; host rates and host times are scaled by its speed
//! relative to `NOMINAL_MS`, so two runs on the same host in different
//! moods compare. Its shape follows the simulator's hot loop (byte
//! dispatch, an evaluation stack, call and return through a frame
//! stack), which is what makes its speed track the simulator's.

use std::hint::black_box;
use std::time::Instant;

/// Milliseconds one [`sample_ms`] takes at the reference speed.
pub const NOMINAL_MS: f64 = 2.7;

const PUSH: u8 = 0;
const ARG: u8 = 1;
const LT: u8 = 2;
const JZ: u8 = 3;
const SUB: u8 = 4;
const ADD: u8 = 5;
const CALL: u8 = 6;
const RET: u8 = 7;
const HALT: u8 = 8;

const MEMORY_WORDS: usize = 1 << 17;

/// `fib(n)`, recursively: `main` at 0, `fib` at 4.
const PROGRAM: [u8; 26] = [
    ARG, CALL, 4, HALT, // main: fib(arg)
    ARG, PUSH, 2, LT, JZ, 12, ARG, RET, // n < 2 => n
    ARG, PUSH, 1, SUB, CALL, 4, // fib(n - 1)
    ARG, PUSH, 2, SUB, CALL, 4, // fib(n - 2)
    ADD, RET,
];

/// Runs the reference program on `n` and returns its result.
fn interpret(code: &[u8], n: i64) -> i64 {
    // Each frame: (return pc, slot of its argument in `memory`). Slots
    // are scattered over a megabyte, as a frame heap spreads frames
    // over guest memory, so the sample feels cache contention too.
    let mut memory = vec![0i64; MEMORY_WORDS];
    let mut slot = 0usize;
    memory[slot] = n;
    let mut frames: Vec<(usize, usize)> = vec![(usize::MAX, slot)];
    let mut stack: Vec<i64> = Vec::with_capacity(64);
    let mut pc = 0;
    loop {
        let op = code[pc];
        pc += 1;
        match op {
            PUSH => {
                stack.push(code[pc] as i64);
                pc += 1;
            }
            ARG => stack.push(frames.last().map_or(0, |f| memory[f.1])),
            LT => {
                let b = stack.pop().unwrap_or(0);
                let a = stack.pop().unwrap_or(0);
                stack.push((a < b) as i64);
            }
            JZ => {
                let target = code[pc] as usize;
                pc = if stack.pop().unwrap_or(0) == 0 {
                    target
                } else {
                    pc + 1
                };
            }
            SUB => {
                let b = stack.pop().unwrap_or(0);
                let a = stack.pop().unwrap_or(0);
                stack.push(a - b);
            }
            ADD => {
                let b = stack.pop().unwrap_or(0);
                let a = stack.pop().unwrap_or(0);
                stack.push(a + b);
            }
            CALL => {
                let arg = stack.pop().unwrap_or(0);
                slot = (slot.wrapping_mul(2_654_435_761) + 97) % MEMORY_WORDS;
                memory[slot] = arg;
                frames.push((pc + 1, slot));
                pc = code[pc] as usize;
            }
            RET => pc = frames.pop().map_or(0, |f| f.0),
            _ => return stack.pop().unwrap_or(0),
        }
    }
}

/// Times one run of the reference interpreter, in milliseconds.
pub fn sample_ms() -> f64 {
    let start = Instant::now();
    let r = interpret(black_box(&PROGRAM), black_box(22));
    assert_eq!(r, 17711, "the reference interpreter computes fib(22)");
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_program_computes_fib() {
        assert_eq!(interpret(&PROGRAM, 10), 55);
        assert_eq!(interpret(&PROGRAM, 1), 1);
    }
}
