//! Post-processing of frequent itemsets: association rules.
//!
//! Frequent-itemset mining is rarely the end product. The paper's
//! introduction motivates it through recommendation ("customers who
//! bought this item also bought …"), which is association-rule mining:
//! from every frequent itemset `X` and partition `X = A ∪ C`, the rule
//! `A ⇒ C` holds with
//!
//! - **support** `sup(X)` — how often the whole itemset occurs,
//! - **confidence** `sup(X) / sup(A)` — how often the consequent follows
//!   the antecedent, and
//! - **lift** `conf / (sup(C) / |D|)` — how much more often than chance.
//!
//! [`RuleMiner`] implements the classic Agrawal–Srikant rule generation:
//! for each frequent itemset, consequents are grown level-wise, pruned by
//! the anti-monotonicity of confidence (if `A ⇒ C` lacks confidence, so
//! does every rule that moves more items from `A` into `C`).
//!
//! The closed and maximal condensed representations are mined inside the
//! CFP-growth recursion (`cfp_data::OutputMode`); their brute-force
//! oracles live in `cfp_baselines::oracle`.

#![warn(missing_docs)]

pub mod rules;

pub use rules::{Rule, RuleMiner};
