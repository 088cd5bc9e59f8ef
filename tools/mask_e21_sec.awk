# Masks the wall-clock `sec` column of E21 in `bench/main.exe` output,
# the one cell of that output that is not a function of the code alone:
#
#   awk -f tools/mask_e21_sec.awk bench/expected.txt
#
# Table rows of the E21 block (header, rule and data rows) are printed
# with single spaces and their fourth field replaced by "-", so a
# wider sec value cannot shift the other columns either; every other
# line is printed as it is.
/^=== / { e21 = ($2 == "E21") }
e21 && ($1 ~ /^[0-9]+$/ || $1 ~ /^-+$/ || $1 == "n") { $4 = "-" }
{ print }
