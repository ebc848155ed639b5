"""Tests of the benchmark's reference code, pinned to hand-checked values
(the README's CLI examples and textbook codes).

    python3 perfbench/test_reference.py
"""

import unittest

import reference as ref
from workloads import check_best_css, check_max_k

HAMMING_7_4 = [(1, 0, 0, 0, 0, 1, 1), (0, 1, 0, 0, 1, 0, 1), (0, 0, 1, 0, 1, 1, 0), (0, 0, 0, 1, 1, 1, 1)]


class BoundTests(unittest.TestCase):
    def test_css_lhs_readme(self):
        self.assertEqual(ref.css_lhs(2, 12, 7, 5, 2, 2), (256, 455))
        self.assertTrue(ref.css_feasible(2, 12, 7, 5, 2, 2))

    def test_stab_lhs_readme(self):
        self.assertEqual(ref.stab_lhs(2, 10, 3, 2, 2), (10752, 13981))

    def test_max_k_readme(self):
        self.assertIsNone(check_max_k(2, 10, 2, 2, 3))
        self.assertIsNotNone(check_max_k(2, 10, 2, 2, 2))
        self.assertIsNotNone(check_max_k(2, 10, 2, 2, 4))

    def test_best_css_readme(self):
        self.assertIsNone(check_best_css(2, 12, 2, 2, (7, 4)))
        self.assertIsNotNone(check_best_css(2, 12, 2, 2, (8, 5)))  # same net, larger k1
        self.assertIsNotNone(check_best_css(2, 12, 2, 2, (7, 5)))  # smaller net

    def test_gaussian_binomial(self):
        self.assertEqual(ref.gaussian_binomial(4, 2, 2), 35)
        self.assertEqual(ref.gaussian_binomial(3, 1, 3), 13)
        self.assertEqual(ref.gaussian_binomial(5, 0, 2), 1)

    def test_lemma_readme(self):
        self.assertEqual(ref.lemma_counts(2, 3, 2, 1), (21, 6, 6))

    def test_entropy(self):
        self.assertEqual(ref.entropy(0.0, 2), 0.0)
        self.assertAlmostEqual(ref.entropy(0.5, 2), 1.0, places=15)
        self.assertAlmostEqual(ref.entropy(2 / 3, 3), 1.0, places=15)
        self.assertAlmostEqual(ref.entropy(0.11, 2), 0.4999, places=4)

    def test_binom_cdf(self):
        self.assertAlmostEqual(ref.binom_cdf(0, 3, 0.5), 0.125)
        self.assertAlmostEqual(ref.binom_cdf(3, 3, 0.5), 1.0)
        self.assertAlmostEqual(ref.binom_cdf(1, 4, 0.25), 0.75**4 + 4 * 0.25 * 0.75**3)


class AlgebraTests(unittest.TestCase):
    def test_rref_and_membership(self):
        basis, pivots = ref.rref([(1, 1, 0), (2, 2, 0), (0, 1, 1)], 3)
        self.assertEqual((basis, pivots), ([(1, 0, 2), (0, 1, 1)], [0, 1]))
        self.assertTrue(ref.in_span((basis, pivots), (2, 0, 1), 3))
        self.assertFalse(ref.in_span((basis, pivots), (0, 0, 1), 3))

    def test_null_space(self):
        checks = ref.null_space(HAMMING_7_4, 7, 2)
        self.assertEqual(len(checks), 3)
        self.assertTrue(all(ref.dot(g, h, 2) == 0 for g in HAMMING_7_4 for h in checks))

    def test_steane_distances(self):
        # Steane: C1 = Hamming [7,4,3], C2 = its dual, a [7,3,4] subcode.
        c2 = ref.null_space(HAMMING_7_4, 7, 2)
        self.assertEqual(ref.css_distances(HAMMING_7_4, c2, 7, 2), (3, 3))

    def test_empty_difference_is_none(self):
        self.assertEqual(ref.css_distances(HAMMING_7_4, HAMMING_7_4, 7, 2), (None, None))

    def test_stab_profile_by_hand(self):
        # [[1,0]] with stabilizer Z: the symplectic dual is the space itself.
        self.assertEqual(ref.stab_profile([(0, 1)], 1, 2), [[True, True], [True, True]])
        # [[2,1]] with stabilizer ZZ: Z on one qubit (wt ez 1) and XX (wt ex 2)
        # are undetectable.
        self.assertEqual(ref.stab_profile([(0, 0, 1, 1)], 2, 2),
                         [[True, False, False], [True, False, False], [False, False, False]])

    def test_isotropic(self):
        self.assertTrue(ref.is_isotropic([(1, 1, 0, 0), (0, 0, 1, 1)], 2, 2))
        self.assertFalse(ref.is_isotropic([(1, 0, 0, 0), (0, 0, 1, 0)], 2, 2))

    def test_ball(self):
        self.assertEqual(ref.ball(12, 2, 1), 12)
        self.assertEqual(ref.ball(5, 3, 2), 10 + 40)
        self.assertEqual(ref.ball(4, 2, 0), 0)
        self.assertEqual(ref.ball(4, 2, 4), 2**4 - 1)


if __name__ == "__main__":
    unittest.main()
