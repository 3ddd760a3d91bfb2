// A learner::Sul decorator that times every call into the SUL it wraps and
// forwards it unchanged, so a learn through it sees exactly the answers and
// counters of the undecorated SUL. The traced learn-remote run wraps a
// net::RemoteUeSul in it to split a learn's wall time into learner time and
// time spent waiting on the wire.
#pragma once

#include <string>
#include <vector>

#include "learner/sul.h"
#include "trace.h"

namespace perfbench {

class TimingSul final : public procheck::learner::Sul {
 public:
  using Word = std::vector<std::string>;

  /// `recorder` receives one span per call, named "net.<call>".
  TimingSul(procheck::learner::Sul& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  void reset() override;
  std::string step(const std::string& input) override;
  long resets() const override { return inner_.resets(); }
  long steps() const override { return inner_.steps(); }
  std::string unavailable_reason() const override { return inner_.unavailable_reason(); }
  Word query_word(const Word& word) override;
  std::vector<Word> query_batch(const std::vector<Word>& words) override;
  Word query_word_fresh(const Word& word) override;

  /// Wall time of each call, by kind (seconds).
  struct Calls {
    std::vector<double> reset, step, word, batch, fresh;
  };
  const Calls& calls() const { return calls_; }
  /// Total wall time spent inside the wrapped SUL.
  double inside_seconds() const { return inside_; }
  /// Moves out every word sent through query_word/query_batch/
  /// query_word_fresh so far, in order.
  std::vector<Word> take_words() { return std::move(words_); }

 private:
  template <typename F>
  auto timed(const char* call, std::vector<double>& samples, F&& f);

  procheck::learner::Sul& inner_;
  SpanRecorder& recorder_;
  Calls calls_;
  double inside_ = 0;
  std::vector<Word> words_;
};

}  // namespace perfbench
