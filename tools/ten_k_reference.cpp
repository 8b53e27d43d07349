// Recomputes the seed-era reference render of the 10k-operation kernels
// test (tests/ten_k_reference.h) and checks its digest against the one
// committed there.  Prints the digest; exits 1 when it differs.  Needs
// about 100 s and 5 GB, which is why the test itself only compares the
// optimised render against the committed digest.
//
//   ./ten_k_reference
#include <iostream>
#include <string>

#include "ten_k_reference.h"

int main()
{
    using namespace phls;
    const std::string digest =
        render_digest(run_ten_k(make_ten_k_workload(), all_reference()));
    std::cout << digest << '\n';
    if (digest == ten_k_reference_digest) return 0;
    std::cerr << "reference render digest " << digest << " differs from the committed "
              << ten_k_reference_digest << " (tests/ten_k_reference.h)\n";
    return 1;
}
