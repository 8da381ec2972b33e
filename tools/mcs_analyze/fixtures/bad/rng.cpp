// Fixture: unseeded / raw randomness; the `rng` check must flag each use.
#include <cstdlib>
#include <random>

namespace fixture {

int bad_libc_rand() {
  std::srand(42);        // finding: rng
  return std::rand();    // finding: rng
}

int bad_raw_engine() {
  std::random_device rd;      // finding: rng (nondeterministic seed source)
  std::mt19937 engine{rd()};  // finding: rng (raw engine outside sim/random)
  return static_cast<int>(engine());
}

int bad_unqualified_and_64_bit() {
  std::mt19937_64 engine{1};  // finding: rng (64-bit raw engine)
  return rand() + static_cast<int>(engine());  // finding: rng (unqualified)
}

}  // namespace fixture
