//! Output checks: every answer is compared with one the in-process
//! [`Engine`] computed during set-up.

use chain2l_core::evaluator::expected_makespan;
use chain2l_core::{Engine, Solution};
use chain2l_model::Scenario;
use chain2l_service::protocol::{
    encode_request, parse_response, Request, Response, SolveResult, SolveSpec,
};

/// Reference answers for `specs`, solved in-process on a fresh engine.
pub fn reference_answers(specs: &[SolveSpec]) -> Vec<SolveResult> {
    let engine = Engine::new();
    engine
        .solve_batch(&crate::workload::requests(specs))
        .iter()
        .map(|s| SolveResult::from_solution(s))
        .collect()
}

/// Bit-for-bit equality of two answers.
pub fn same_result(a: &SolveResult, b: &SolveResult) -> bool {
    a.expected_makespan.to_bits() == b.expected_makespan.to_bits()
        && a.normalized_makespan.to_bits() == b.normalized_makespan.to_bits()
        && (a.disk, a.memory, a.guaranteed, a.partial)
            == (b.disk, b.memory, b.guaranteed, b.partial)
}

/// True when `line` is a successful solve response bit-equal to `expected`.
pub fn response_matches(line: &str, expected: &SolveResult) -> bool {
    matches!(parse_response(line), Ok(Response::Solve { result, .. }) if same_result(&result, expected))
}

/// Counts the requests of a phase that got no answer or a wrong one.
pub fn count_failures(
    responses: &[Option<String>],
    spec_of: &[u32],
    expected: &[SolveResult],
) -> u64 {
    responses
        .iter()
        .zip(spec_of)
        .filter(|(r, &s)| {
            !r.as_deref().is_some_and(|line| response_matches(line, &expected[s as usize]))
        })
        .count() as u64
}

/// True when a batch solution's schedule is valid and the evaluator's
/// expected makespan agrees with the DP value.  The two sum the same terms
/// in different orders, so they agree to 1e-9 relative, the tolerance the
/// repository's own optimality tests use.
pub fn solution_valid(
    scenario: &Scenario,
    algorithm: chain2l_core::Algorithm,
    solution: &Solution,
) -> bool {
    match expected_makespan(scenario, &solution.schedule, algorithm.cost_model()) {
        Ok(v) => {
            (v - solution.expected_makespan).abs() <= 1e-9 * solution.expected_makespan.max(1.0)
        }
        Err(_) => false,
    }
}

/// The newline-terminated request line of request `id`.
pub fn request_line(id: u64, spec: &SolveSpec) -> String {
    let mut line = encode_request(&Request::Solve { id, spec: spec.clone() });
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain2l_service::protocol::encode_response;

    #[test]
    fn a_wrong_bit_or_an_error_fails_the_check() {
        let specs = crate::workload::hot_specs(1);
        let expected = reference_answers(&specs[..2]);
        let good = encode_response(&Response::Solve { id: 3, result: expected[0].clone() });
        assert!(response_matches(&good, &expected[0]));
        assert!(!response_matches(&good, &expected[1]));
        let mut off = expected[0].clone();
        off.expected_makespan = f64::from_bits(off.expected_makespan.to_bits() + 1);
        let bad = encode_response(&Response::Solve { id: 3, result: off });
        assert!(!response_matches(&bad, &expected[0]));
        let err = encode_response(&Response::overloaded(3));
        assert!(!response_matches(&err, &expected[0]));
        let responses = vec![Some(good), Some(bad), None, Some(err)];
        assert_eq!(count_failures(&responses, &[0, 0, 0, 0], &expected), 3);
    }
}
