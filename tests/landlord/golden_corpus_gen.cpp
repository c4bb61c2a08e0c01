// Prints the golden decision corpus (golden_corpus.hpp), one line per
// combination, for the cache type named below:
//
//   $ ./build/tests/golden_corpus_gen > tests/landlord/corpus/golden_decisions.txt
#include <iostream>

#include "golden_corpus.hpp"
#include "landlord/sharded.hpp"

int main() {
  using namespace landlord::core;
  for (const golden::Combo& combo : golden::combos()) {
    ShardedCache cache(golden::repo(), golden::config_of(combo));
    std::cout << golden::key(combo) << ' ' << golden::digests(cache) << '\n';
  }
  return 0;
}
