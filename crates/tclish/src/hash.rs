//! The hasher of the interpreter's name tables (commands, procs, frame
//! variables): the Fx hash of rustc and Firefox, a multiply and a rotate
//! per word. Names are short and come from the programs an embedder runs,
//! so SipHash's resistance to chosen-key flooding buys nothing here,
//! while hashing them with it took about an eighth of a one-command Tcl
//! bag's CPU.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Whole words, then a half word, then bytes: fixed-size reads that
        // compile to plain loads (a variable-length copy into a word calls
        // `memcpy` and stalls on the read back).
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes([
                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
            ]));
        }
        let mut rest = chunks.remainder();
        if let [a, b, c, d, tail @ ..] = rest {
            self.add(u32::from_le_bytes([*a, *b, *c, *d]) as u64);
            rest = tail;
        }
        for &b in rest {
            self.add(b as u64);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
pub(crate) type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;
