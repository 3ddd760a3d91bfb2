#include "timing_sul.h"

#include <chrono>

namespace perfbench {

template <typename F>
auto TimingSul::timed(const char* call, std::vector<double>& samples, F&& f) {
  SpanRecorder::Scope span(recorder_, std::string("net.") + call);
  const auto t0 = std::chrono::steady_clock::now();
  auto result = f();
  const double dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  samples.push_back(dt);
  inside_ += dt;
  return result;
}

void TimingSul::reset() {
  timed("reset", calls_.reset, [&] {
    inner_.reset();
    return 0;
  });
}

std::string TimingSul::step(const std::string& input) {
  return timed("step", calls_.step, [&] { return inner_.step(input); });
}

TimingSul::Word TimingSul::query_word(const Word& word) {
  words_.push_back(word);
  return timed("query_word", calls_.word, [&] { return inner_.query_word(word); });
}

std::vector<TimingSul::Word> TimingSul::query_batch(const std::vector<Word>& words) {
  words_.insert(words_.end(), words.begin(), words.end());
  return timed("query_batch", calls_.batch, [&] { return inner_.query_batch(words); });
}

TimingSul::Word TimingSul::query_word_fresh(const Word& word) {
  words_.push_back(word);
  return timed("query_word_fresh", calls_.fresh, [&] { return inner_.query_word_fresh(word); });
}

}  // namespace perfbench
