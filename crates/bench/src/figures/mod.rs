//! The paper's figures and tables, one function each: a [`RunConfig`] in,
//! the text the binary of the same name prints out. What a function prints
//! is counted page I/O, rows and plans — never wall time — so the text is a
//! pure function of the workload seed, and `tests/figures_identity.rs`
//! holds every engine configuration to the bytes of the default one.

use crate::RunConfig;

/// `println!` onto the end of a figure's output string.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

mod ablation;
mod bugs;
mod extensions;
mod figure1;
mod figure2;
mod section7;
mod sweep;

pub use ablation::ablation;
pub use bugs::{bug_demo, bugs, DEMOS};
pub use extensions::extensions;
pub use figure1::figure1;
pub use figure2::figure2;
pub use section7::section7;
pub use sweep::sweep;

/// Every figure, by the name of its binary.
pub const ALL: [(&str, fn(&RunConfig) -> String); 7] = [
    ("figure1", figure1),
    ("figure2", figure2),
    ("section7", section7),
    ("ablation", ablation),
    ("bugs", bugs),
    ("extensions", extensions),
    ("sweep", sweep),
];
