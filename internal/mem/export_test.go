package mem

// PageLeafSparse is the most entries a sparse PageMap leaf holds.
const PageLeafSparse = pageLeafSparse
