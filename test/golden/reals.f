! Real literals that "%g" would print wrongly: 0.123456789 has nine
! significant digits (six survive "%g"), and 0.000001 prints as 1e-06,
! which is not a REAL literal of the language.
PROGRAM reals
  INTEGER n
  INTEGER cnt(n)
  REAL a(n)
  INTEGER i, j
  DO i = 1, n
    DO j = 1, cnt(i)
      a(i) = a(i) + 0.123456789 * j + 0.000001
    ENDDO
  ENDDO
END
