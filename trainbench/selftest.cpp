// Unit tests of the benchmark's own statistics, span ledger and operation
// counts. Run by `python3 trainbench/run.py --self-test`; exits non-zero on
// the first failure.
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "probes.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void test_median_and_counts() {
  using trainbench::median;
  expect(median({3.0}) == 3.0, "median of one value");
  expect(median({5.0, 1.0, 3.0}) == 3.0, "median of an odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5,
         "median of an even count averages the middle");
  expect(median({2.0, 2.0, 9.0, 2.0}) == 2.0, "median with ties");
  bool threw = false;
  try {
    median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of an empty series throws");

  const trainbench::Summary s = trainbench::summarize({1.5, 0.5, 2.5, 4.0});
  expect(s.samples == 4, "summary counts its samples");
  expect(s.median == 2.0 && s.min == 0.5 && s.max == 4.0, "summary median/min/max");
  const trainbench::Summary empty = trainbench::summarize({});
  expect(empty.samples == 0 && empty.median == 0.0, "summary of nothing is empty");
}

void test_trace_closure() {
  trainbench::Trace trace;
  std::size_t parent = 0;
  {
    trainbench::ScopedSpan outer(&trace, "iteration");
    parent = outer.id();
    {
      trainbench::ScopedSpan a(&trace, "stage");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    {
      trainbench::ScopedSpan gap(&trace, "stage");
      {
        trainbench::ScopedSpan nested(&trace, "inner");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));  // unspanned
  }
  expect(trace.spans().size() == 4, "every span is recorded");
  expect(trace.span(3).parent == 2, "a nested span records its parent");
  expect(trace.child_durations(parent, "stage").size() == 2, "direct children by name");
  expect(trace.child_durations(parent, "inner").empty(),
         "grandchildren are not children");
  const double closure = trace.closure(parent);
  expect(closure > 0.35 && closure < 0.75,
         "closure is the covered share of the parent (" + std::to_string(closure) + ")");
  trainbench::ScopedSpan null_span(nullptr, "nothing");
  expect(trace.spans().size() == 4, "a null trace records nothing");

  bool threw = false;
  trainbench::Trace bad;
  const std::size_t first = bad.open("a");
  bad.open("b");
  try {
    bad.close(first);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "closing a span that is not innermost throws");
}

void test_json_and_hash() {
  expect(trainbench::json_number(0.1) == "0.1", "shortest round-trip number");
  expect(trainbench::json_number(2.0) == "2", "integral number");
  expect(trainbench::json_string("a\"b") == "\"a\\\"b\"", "quoted string");
  expect(trainbench::fnv1a("a", 1) == 0xaf63dc4c8601ec8cULL, "FNV-1a test vector");
}

void test_gemm_count() {
  // One row through actor_in=3, critic_in=5, hidden=2, phases=4, GEMM by
  // GEMM (m*n*k with m=1):
  //   actor forward:   embed 3*2, LSTM x 2*8 and h 2*8, policy 2*4    = 46
  //   actor backward:  policy dW 2*4 and dh 4*2, LSTM dW_h, dx, dW_x
  //                    3 * 2*8, embed dW 3*2                          = 70
  //   critic forward:  embed 5*2, LSTM 2 * 2*8, value 2*1             = 44
  //   critic backward: value dW 2*1 and dh 1*2, LSTM 3 * 2*8,
  //                    embed dW 5*2                                   = 62
  trainbench::NetShape shape;
  shape.actor_in = 3;
  shape.critic_in = 5;
  shape.hidden = 2;
  shape.phases = 4;
  expect(trainbench::update_gemm_mnk_per_row(shape) == 46 + 70 + 44 + 62,
         "GEMM m*n*k per row");
}

}  // namespace

int main() {
  test_median_and_counts();
  test_trace_closure();
  test_json_and_hash();
  test_gemm_count();
  if (failures == 0) std::printf("trainbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
