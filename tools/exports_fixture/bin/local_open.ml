let d = Alpha.Geo.(local_open + 1)
